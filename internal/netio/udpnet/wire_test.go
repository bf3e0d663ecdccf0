package udpnet_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"morpheus/internal/clock"
	"morpheus/internal/netio"
	"morpheus/internal/netio/udpnet"
)

// wirePair builds a two-node udpnet with the given wire-plane knobs and
// returns the endpoints plus a recorder of everything node 2 receives on
// port "p".
func wirePair(t *testing.T, cfg udpnet.Config) (a, b netio.Endpoint, rec *recorder) {
	t.Helper()
	cfg.Peers = map[netio.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	nw, err := udpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nw.Close() })
	a, err = nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed})
	if err != nil {
		t.Fatal(err)
	}
	b, err = nw.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed})
	if err != nil {
		t.Fatal(err)
	}
	rec = &recorder{}
	b.Handle("p", rec.handle)
	return a, b, rec
}

// recorder captures delivered payloads in arrival order.
type recorder struct {
	mu   sync.Mutex
	msgs []string
}

func (r *recorder) handle(_ netio.NodeID, _ string, payload []byte) {
	r.mu.Lock()
	r.msgs = append(r.msgs, string(payload))
	r.mu.Unlock()
}

func (r *recorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.msgs...)
}

// waitMsgs polls until the recorder holds want messages (order-preserving
// UDP loopback makes the contents deterministic once the count matches).
func waitMsgs(t *testing.T, rec *recorder, want int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := rec.snapshot()
		if len(got) >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: received %d/%d messages: %v", len(got), want, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWirePackingAtMTUBoundary pins the size-based seal: with MTU 128,
// port "p" and class "data", a 20-byte payload costs exactly 28 container
// bytes (1 length prefix + 1+1 port + 1+4 class + 20 payload), so 4
// frames fill a datagram to 8+4×28 = 120 bytes and the 5th must seal it.
// Eight casts therefore cross the wire as exactly 2 datagrams.
func TestWirePackingAtMTUBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	a, _, rec := wirePair(t, udpnet.Config{WireMTU: 128, WireFlushDelay: time.Hour})
	var want []string
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("msg-%02d-%013d", i, i)[:20]
		want = append(want, p)
		if err := a.Send(2, "p", "data", []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	a.(flushEndpoint).Flush()
	got := waitMsgs(t, rec, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order broken at %d: got %q want %q\nall: %v", i, got[i], want[i], got)
		}
	}
	c := a.Counters()
	if c.TxDatagrams != 2 {
		t.Fatalf("TxDatagrams = %d, want 2 (8 frames packed 4-per-datagram)", c.TxDatagrams)
	}
	if c.TxWireBytes != 240 {
		t.Fatalf("TxWireBytes = %d, want 240 (2 × (8-byte header + 4×28))", c.TxWireBytes)
	}
	if c.TxSyscalls == 0 || c.TxSyscalls > c.TxDatagrams {
		t.Fatalf("TxSyscalls = %d, want 1..%d", c.TxSyscalls, c.TxDatagrams)
	}
	if got := c.Tx["data"].Msgs; got != 8 {
		t.Fatalf("Tx frames = %d, want 8 (frame accounting is packing-independent)", got)
	}
}

// TestWireDelayFlushOnVirtualClock pins the delay bound deterministically:
// with the flush timer on a virtual clock, coalesced frames stay queued
// while virtual time stands still and go to the wire exactly when the
// clock passes WireFlushDelay.
func TestWireDelayFlushOnVirtualClock(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	clk := clock.NewVirtual()
	defer clk.Stop()
	a, _, rec := wirePair(t, udpnet.Config{
		WireMTU:        1400,
		WireFlushDelay: time.Millisecond,
		Clock:          clk,
	})
	for i := 0; i < 3; i++ {
		if err := a.Send(2, "p", "data", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Virtual time has not advanced, so the delay bound cannot have fired:
	// nothing may be on the wire no matter how much wall time passes.
	time.Sleep(50 * time.Millisecond)
	if c := a.Counters(); c.TxDatagrams != 0 {
		t.Fatalf("TxDatagrams = %d before the virtual flush delay elapsed, want 0", c.TxDatagrams)
	}
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("received %v before the virtual flush delay elapsed", got)
	}
	// Crossing the delay fires the timer (on the clock goroutine) and the
	// three frames leave as one datagram.
	clk.Sleep(2 * time.Millisecond)
	waitMsgs(t, rec, 3)
	if c := a.Counters(); c.TxDatagrams != 1 {
		t.Fatalf("TxDatagrams = %d after flush, want 1", c.TxDatagrams)
	}
}

// TestWireOversizeBypass pins the bypass path: a frame too large for the
// MTU travels alone in a one-entry container (the only format the receiver
// decodes, so delivery itself proves the format; the exact wire-byte count
// pins the container overhead), and doing so does not reorder it against
// the coalesced frames around it.
func TestWireOversizeBypass(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	a, _, rec := wirePair(t, udpnet.Config{WireMTU: 1400, WireFlushDelay: time.Hour})
	big := make([]byte, 8<<10) // the bulk_udp frame size: far over the MTU budget
	for i := range big {
		big[i] = 'B'
	}
	if err := a.Send(2, "p", "data", []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, "p", "data", big); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, "p", "data", []byte("after")); err != nil {
		t.Fatal(err)
	}
	a.(flushEndpoint).Flush()
	got := waitMsgs(t, rec, 3)
	if got[0] != "before" || got[1] != string(big) || got[2] != "after" {
		t.Fatalf("order broken around oversize bypass: lengths %d,%d,%d", len(got[0]), len(got[1]), len(got[2]))
	}
	// "before" seals when the bypass arrives, the bypass is its own
	// container, "after" flushes explicitly: 3 datagrams, each an 8-byte
	// header plus one length-prefixed entry (7 body bytes of port and class
	// framing + payload).
	c := a.Counters()
	if c.TxDatagrams != 3 {
		t.Fatalf("TxDatagrams = %d, want 3", c.TxDatagrams)
	}
	want := uint64((8 + 1 + 7 + len("before")) + (8 + 2 + 7 + len(big)) + (8 + 1 + 7 + len("after")))
	if c.TxWireBytes != want {
		t.Fatalf("TxWireBytes = %d, want %d (three one-entry containers)", c.TxWireBytes, want)
	}
}

// TestWireRejectsNegativeMTU pins the retired unbatched mode: a negative
// WireMTU is an invalid size like any other.
func TestWireRejectsNegativeMTU(t *testing.T) {
	if _, err := udpnet.New(udpnet.Config{WireMTU: -1}); err == nil {
		t.Fatal("udpnet.New accepted WireMTU -1")
	}
}

// TestWireCloseFlushes pins graceful shutdown: frames still waiting on
// the delay bound reach the wire before the endpoint's sockets close.
func TestWireCloseFlushes(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	a, _, rec := wirePair(t, udpnet.Config{WireMTU: 1400, WireFlushDelay: time.Hour})
	for i := 0; i < 4; i++ {
		if err := a.Send(2, "p", "data", []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got := waitMsgs(t, rec, 4)
	if got[0] != "a" || got[3] != "d" {
		t.Fatalf("got %v", got)
	}
}

// TestWireFrameTooLarge pins the typed oversize error, and that a frame
// rejected for size is neither accounted as transmitted nor allowed to
// seal its destination's open datagram: a port name long enough pushes a
// legal payload past the 64 KiB datagram ceiling.
func TestWireFrameTooLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	a, _, rec := wirePair(t, udpnet.Config{WireFlushDelay: time.Hour})
	if err := a.Send(2, "p", "data", make([]byte, netio.MaxPayload+1)); !errors.Is(err, netio.ErrFrameTooLarge) {
		t.Fatalf("Send oversize: err = %v, want netio.ErrFrameTooLarge", err)
	}
	if err := a.Send(2, "p", "data", []byte("open")); err != nil {
		t.Fatal(err)
	}
	before := a.Counters()
	longPort := strings.Repeat("x", 2<<10)
	if err := a.Send(2, longPort, "data", make([]byte, netio.MaxPayload-16)); !errors.Is(err, netio.ErrFrameTooLarge) {
		t.Fatalf("Send with %d-byte port: err = %v, want netio.ErrFrameTooLarge", len(longPort), err)
	}
	after := a.Counters()
	if after.Tx["data"] != before.Tx["data"] {
		t.Fatalf("rejected frame was accounted: Tx %+v -> %+v", before.Tx["data"], after.Tx["data"])
	}
	// Still open: the next small frame joins "open" in one datagram.
	if err := a.Send(2, "p", "data", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	a.(flushEndpoint).Flush()
	if got := waitMsgs(t, rec, 2); got[0] != "open" || got[1] != "tail" {
		t.Fatalf("got %q, want [open tail]", got)
	}
	if c := a.Counters(); c.TxDatagrams != 1 {
		t.Fatalf("TxDatagrams = %d, want 1: the rejected frame sealed the open datagram", c.TxDatagrams)
	}
	if err := a.Send(2, "p", "data", make([]byte, netio.MaxPayload)); err != nil {
		t.Fatalf("Send at MaxPayload: %v", err)
	}
	if got := waitMsgs(t, rec, 3); len(got[2]) != netio.MaxPayload {
		t.Fatalf("received %d bytes, want %d", len(got[2]), netio.MaxPayload)
	}
}
