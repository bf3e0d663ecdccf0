package udpnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"morpheus/internal/netio"
)

// delivery is one handler invocation observed by a test endpoint.
type delivery struct {
	src     netio.NodeID
	port    string
	payload string
}

// container builds a datagram by hand: the given version byte, source and
// count field, followed by raw entry bytes — so malformed shapes can be
// spelled out exactly.
func container(version byte, src netio.NodeID, count uint16, entries ...[]byte) []byte {
	b := []byte{frameMagic, version}
	b = binary.BigEndian.AppendUint32(b, uint32(src))
	b = binary.BigEndian.AppendUint16(b, count)
	for _, e := range entries {
		b = append(b, e...)
	}
	return b
}

// entry encodes one well-formed length-prefixed container entry.
func entry(port, class, payload string) []byte {
	b := binary.AppendUvarint(nil, uint64(frameBodyLen(port, class, []byte(payload))))
	return appendFrameBody(b, port, class, []byte(payload))
}

// receive runs one datagram through a socketless endpoint with identity
// self and returns what reached the handlers of the given ports.
func receive(self netio.NodeID, b []byte, ports ...string) []delivery {
	e := &Endpoint{id: self, logf: netio.Logf(nil).Or()}
	var got []delivery
	for _, p := range ports {
		e.Handle(p, func(src netio.NodeID, port string, payload []byte) {
			got = append(got, delivery{src, port, string(payload)})
		})
	}
	e.handleDatagram(b)
	return got
}

// TestHandleDatagramMalformed feeds the one datagram parser the malformed
// shapes a socket can hand it: nothing may panic, no handler may run for a
// bad entry, and the valid entries ahead of a bad tail are still delivered.
func TestHandleDatagramMalformed(t *testing.T) {
	good := entry("p", "data", "one")
	good2 := entry("q", "control", "two")
	// A v1 single frame as the retired format laid it out.
	legacy := appendFrameBody(binary.BigEndian.AppendUint32([]byte{frameMagic, 1}, 1), "p", "data", []byte("old"))
	// An entry whose outer length is fine but whose port length overruns it.
	badBody := append(binary.AppendUvarint(nil, 3), 9, 'p', 'x')

	cases := []struct {
		name  string
		dgram []byte
		want  []delivery
	}{
		{"valid two-entry container", container(containerVersion, 1, 2, good, good2),
			[]delivery{{1, "p", "one"}, {1, "q", "two"}}},
		{"empty datagram", nil, nil},
		{"truncated header", container(containerVersion, 1, 1)[:containerHdrLen-1], nil},
		{"wrong magic", append([]byte{'X'}, container(containerVersion, 1, 1, good)[1:]...), nil},
		{"legacy version-1 datagram", legacy, nil},
		{"own-source loopback", container(containerVersion, 2, 1, good), nil},
		{"count larger than the entries present", container(containerVersion, 1, 3, good),
			[]delivery{{1, "p", "one"}}},
		{"zero count with trailing bytes", container(containerVersion, 1, 0, good), nil},
		{"body length past the buffer", container(containerVersion, 1, 2, good, binary.AppendUvarint(nil, 200), []byte("short")),
			[]delivery{{1, "p", "one"}}},
		{"unterminated length varint", container(containerVersion, 1, 2, good, []byte{0x80, 0x80}),
			[]delivery{{1, "p", "one"}}},
		{"bad entry between good ones", container(containerVersion, 1, 3, good, badBody, good2),
			[]delivery{{1, "p", "one"}, {1, "q", "two"}}},
		{"empty port", container(containerVersion, 1, 2, entry("", "data", "nobody"), good),
			[]delivery{{1, "p", "one"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := receive(2, tc.dgram, "p", "q"); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("delivered %v, want %v", got, tc.want)
			}
		})
	}
}

// TestHandleDatagramAllocatesNothing: port and class are resolved from the
// receive buffer — the handler gets the port name as registered, the
// counters the interned class — so a frame of a known class costs no
// allocation. An unknown class still costs its one string.
func TestHandleDatagramAllocatesNothing(t *testing.T) {
	e := &Endpoint{id: 2, logf: netio.Logf(nil).Or()}
	registered := "data@1"
	var frames int
	e.Handle(registered, func(_ netio.NodeID, port string, _ []byte) {
		if port != registered {
			t.Errorf("handler got port %q", port)
		}
		frames++
	})
	known := container(containerVersion, 1, 3, entry("data@1", "data", "one"), entry("data@1", "control", "two"),
		entry("elsewhere", "data", "nobody listens"))
	if got := testing.AllocsPerRun(100, func() { e.handleDatagram(known) }); got != 0 {
		t.Fatalf("known classes: %.1f allocs per datagram, want 0", got)
	}
	other := container(containerVersion, 1, 1, entry("data@1", "bulk", "x"))
	if got := testing.AllocsPerRun(100, func() { e.handleDatagram(other) }); got > 1 {
		t.Fatalf("unknown class: %.1f allocs per datagram, want at most 1", got)
	}
	if rx := e.Counters().Rx; frames == 0 || rx["data"].Msgs == 0 || rx["control"].Msgs == 0 || rx["other"].Msgs == 0 {
		t.Fatalf("frames %d, rx %v", frames, rx)
	}
}

// decodeRef is the test's own reading of the container format, written
// without the production helpers: the deliveries a datagram must produce
// at endpoint self when every port has a handler.
func decodeRef(self netio.NodeID, b []byte) []delivery {
	if len(b) < 8 || b[0] != 'M' || b[1] != 2 {
		return nil
	}
	src := netio.NodeID(int32(binary.BigEndian.Uint32(b[2:6])))
	if src == self {
		return nil
	}
	var out []delivery
	r := bytes.NewReader(b[8:])
	field := func(r *bytes.Reader) ([]byte, bool) {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len()) {
			return nil, false
		}
		f := make([]byte, n)
		_, _ = r.Read(f)
		return f, true
	}
	for i := 0; i < int(binary.BigEndian.Uint16(b[6:8])); i++ {
		body, ok := field(r)
		if !ok {
			break // undecodable tail
		}
		br := bytes.NewReader(body)
		port, ok := field(br)
		if !ok {
			continue
		}
		if _, ok = field(br); !ok {
			continue
		}
		payload := make([]byte, br.Len())
		_, _ = br.Read(payload)
		out = append(out, delivery{src, string(port), string(payload)})
	}
	return out
}

// liveDatagrams captures what a real endpoint puts on the wire for the
// conformance suite's traffic shapes (its ports, classes and payloads, a
// packed burst, an oversize frame): node 2's address is a plain UDP socket
// the test reads raw datagrams from.
func liveDatagrams(tb testing.TB) [][]byte {
	tb.Helper()
	if testing.Short() {
		return nil // socket use is skipped in -short mode; the hand-built seeds remain
	}
	raw, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	defer raw.Close()
	nw, err := New(Config{
		Peers:          map[netio.NodeID]string{1: "127.0.0.1:0", 2: raw.LocalAddr().String()},
		WireFlushDelay: time.Hour,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer nw.Close()
	ep, err := nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed})
	if err != nil {
		tb.Fatal(err)
	}
	a := ep.(*Endpoint)
	send := func(port, class string, payload []byte) {
		if err := a.Send(2, port, class, payload); err != nil {
			tb.Fatal(err)
		}
	}
	send("p", "data", []byte("hello"))
	a.Flush()
	send("data@1", "data", []byte("old-epoch"))
	send("data@2", "data", []byte("new-epoch"))
	send("alpha/data@1", "data", []byte("for-alpha"))
	send("p", "control", []byte("c"))
	send("p", "data", nil)
	a.Flush()
	for i := 0; i < 200; i++ { // seals on size twice
		send("p", "data", []byte(fmt.Sprintf("seq-%04d", i)))
	}
	send("p", "data", make([]byte, 8<<10)) // oversize: seals the burst's tail, then itself
	a.Flush()

	var out [][]byte
	buf := make([]byte, maxFrame)
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	for want := int(a.Counters().TxDatagrams); len(out) < want; {
		n, _, err := raw.ReadFromUDP(buf)
		if err != nil {
			tb.Fatalf("captured %d/%d datagrams: %v", len(out), want, err)
		}
		out = append(out, append([]byte(nil), buf[:n]...))
	}
	return out
}

// FuzzHandleDatagram drives handleDatagram with arbitrary socket input,
// seeded from live traffic: it must never panic or slice out of bounds,
// and must deliver exactly what an independent reading of the format
// says the datagram carries.
func FuzzHandleDatagram(f *testing.F) {
	for _, d := range liveDatagrams(f) {
		f.Add(d)
	}
	f.Add(container(containerVersion, 1, 3, entry("p", "data", "one"), []byte{0x80}))
	f.Add(container(1, 1, 1, entry("p", "data", "legacy")))
	// The receive path resolves port and class from the borrowed bytes: the
	// empty and the unregistered port, the empty and the unknown class.
	f.Add(container(containerVersion, 1, 5, entry("", "data", "no-port"), entry("nobody", "data", "unknown-port"),
		entry("p", "", "no-class"), entry("p", "bulk", "unknown-class"), entry("p", "control", "known")))
	f.Fuzz(func(t *testing.T, b []byte) {
		// Handlers go on the first few ports the reference finds (each
		// registration copies the port table, so all of them would make a
		// many-entry input quadratic); the rest must reach nobody.
		var ports []string
		handled := make(map[string]bool)
		var want []delivery
		for _, d := range decodeRef(2, b) {
			if !handled[d.port] && len(ports) < 8 {
				handled[d.port] = true
				ports = append(ports, d.port)
			}
			if handled[d.port] {
				want = append(want, d)
			}
		}
		got := receive(2, append([]byte(nil), b...), ports...)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("delivered %d frames %.80v, reference says %d %.80v", len(got), got, len(want), want)
		}
	})
}
