package morpheus

// Flow-control plane tests: the per-group send window (blocking /
// context / non-blocking senders), deterministic ErrGroupClosed on sends
// racing teardown, exact credit accounting across reconfigurations, the
// unbounded-NAK configuration guard, and the groupEndpoint accounting
// parity with the substrate contract.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/core"
	"morpheus/internal/group"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
	"morpheus/internal/netio/udpnet"
	"morpheus/internal/vnet"
)

// startTrio boots a three-node group on a fresh world with the given send
// window.
func startTrio(t *testing.T, seed int64, window int, onMsg func(from NodeID, payload []byte)) []*Node {
	t.Helper()
	w := hybridWorld(t, seed)
	members := []NodeID{1, 2, 3}
	var nodes []*Node
	for _, id := range members {
		n, err := Start(Config{
			World: w, ID: id, Kind: Fixed, Members: members,
			SendWindow: window,
			OnMessage:  onMsg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes = append(nodes, n)
	}
	return nodes
}

// TestTrySendBackpressure fills a tiny window against an idle group and
// asserts the non-blocking mode reports ErrWindowFull instead of waiting,
// then drains and sends again.
func TestTrySendBackpressure(t *testing.T) {
	nodes := startTrio(t, 41, 4, nil)
	g := nodes[0].Group(DefaultGroup)
	// Burst past the window: with stability gossip running the credits
	// drain, so only the instantaneous rejection is asserted, not a count.
	sawFull := false
	for i := 0; i < 64 && !sawFull; i++ {
		err := g.TrySend([]byte(fmt.Sprintf("burst-%d", i)))
		if errors.Is(err, ErrWindowFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("64 un-paced TrySends through a 4-credit window never saw ErrWindowFull")
	}
	// Backpressure is transient: stability returns the credits.
	eventually(t, 10*time.Second, "window drains", func() bool {
		return g.FlowStats().Window.InUse == 0
	})
	if err := g.TrySend([]byte("after-drain")); err != nil {
		t.Fatal(err)
	}
	st := g.FlowStats().Window
	if st.Rejected == 0 || st.HighWater != 4 || st.Capacity != 4 {
		t.Fatalf("window stats = %+v", st)
	}
}

// TestSendContextUnblocks: a context-bounded send parked on a full window
// returns the context's error instead of blocking forever.
func TestSendContextUnblocks(t *testing.T) {
	nodes := startTrio(t, 42, 2, nil)
	g := nodes[0].Group(DefaultGroup)
	// Saturate. (Credits trickle back via stability, hence TrySend in a
	// loop rather than exactly-capacity sends.)
	for i := 0; i < 2; i++ {
		if err := g.Send([]byte(fmt.Sprintf("fill-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := g.SendContext(ctx, []byte("bounded"))
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want nil or DeadlineExceeded", err)
	}
	// And an unconstrained context send succeeds once credits return.
	eventually(t, 10*time.Second, "credits return", func() bool {
		return g.FlowStats().Window.InUse < 2
	})
	if err := g.SendContext(context.Background(), []byte("after")); err != nil {
		t.Fatal(err)
	}
}

// TestByteWindowBackpressure pins the byte-denominated send window end
// to end: with SendWindowBytes tiny, large casts exhaust the byte budget
// long before the (default) message window and TrySend reports
// ErrWindowFull; the
// same stability watermark that frees message credits returns the bytes,
// and at quiescence every acquired byte has been released.
func TestByteWindowBackpressure(t *testing.T) {
	w := hybridWorld(t, 46)
	members := []NodeID{1, 2, 3}
	var nodes []*Node
	for _, id := range members {
		n, err := Start(Config{
			World: w, ID: id, Kind: Fixed, Members: members,
			SendWindowBytes: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes = append(nodes, n)
	}
	g := nodes[0].Group(DefaultGroup)

	// 100-byte casts against a 256-byte budget: the third unstable cast
	// cannot fit, so an un-paced burst must hit ErrWindowFull.
	payload := make([]byte, 100)
	sawFull := false
	for i := 0; i < 64 && !sawFull; i++ {
		err := g.TrySend(payload)
		if errors.Is(err, ErrWindowFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("64 un-paced 100-byte TrySends through a 256-byte window never saw ErrWindowFull")
	}
	// Stability returns the bytes, exactly as many as were taken.
	eventually(t, 10*time.Second, "byte window drains", func() bool {
		return g.FlowStats().WindowBytes.InUse == 0
	})
	if err := g.TrySend(payload); err != nil {
		t.Fatal(err)
	}
	eventually(t, 10*time.Second, "final cast's bytes return", func() bool {
		return g.FlowStats().WindowBytes.InUse == 0
	})
	st := g.FlowStats()
	if st.WindowBytes.Rejected == 0 || st.WindowBytes.Capacity != 256 {
		t.Fatalf("byte window stats = %+v", st.WindowBytes)
	}
	if st.WindowBytes.HighWater > 256 {
		t.Fatalf("byte high water %d exceeds capacity 256", st.WindowBytes.HighWater)
	}
	if st.WindowBytes.Acquired != st.WindowBytes.Released {
		t.Fatalf("byte credit accounting: acquired %d != released %d", st.WindowBytes.Acquired, st.WindowBytes.Released)
	}
	// The message window never came near its capacity (bytes alone gated),
	// and its credits balance too.
	if st.Window.HighWater > 3 || st.Window.Rejected != 0 || st.Window.Acquired != st.Window.Released {
		t.Fatalf("message window stats = %+v", st.Window)
	}
}

// TestSendAfterLeaveAndClose is the satellite regression: sends after
// Leave or node Close return ErrGroupClosed deterministically, and sends
// RACING the teardown either complete or return ErrGroupClosed — they are
// never silently buffered into a dead group.
func TestSendAfterLeaveAndClose(t *testing.T) {
	nodes := startTrio(t, 43, 0, nil)

	// Extra group to exercise Leave separately from node Close.
	var aux []*Group
	for _, n := range nodes {
		g, err := n.Join("aux", GroupConfig{Members: []NodeID{1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		aux = append(aux, g)
	}

	// Race senders against Leave on node 0.
	var wg sync.WaitGroup
	var badErr atomic.Value
	start := make(chan struct{})
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				err := aux[0].Send([]byte(fmt.Sprintf("race-%d-%d", s, i)))
				if err == nil {
					continue
				}
				if errors.Is(err, ErrGroupClosed) {
					return // deterministic teardown signal
				}
				badErr.Store(fmt.Errorf("sender %d: %w", s, err))
				return
			}
		}(s)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	if err := aux[0].Leave(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err, ok := badErr.Load().(error); ok && err != nil {
		t.Fatal(err)
	}

	// Post-Leave: deterministic sentinel on every mode.
	if err := aux[0].Send([]byte("x")); !errors.Is(err, ErrGroupClosed) {
		t.Fatalf("Send after Leave = %v, want ErrGroupClosed", err)
	}
	if err := aux[0].TrySend([]byte("x")); !errors.Is(err, ErrGroupClosed) {
		t.Fatalf("TrySend after Leave = %v, want ErrGroupClosed", err)
	}
	if err := aux[0].SendContext(context.Background(), []byte("x")); !errors.Is(err, ErrGroupClosed) {
		t.Fatalf("SendContext after Leave = %v, want ErrGroupClosed", err)
	}

	// Node Close: default group handle and Node.Send agree.
	def := nodes[0].Group(DefaultGroup)
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := def.Send([]byte("x")); !errors.Is(err, ErrGroupClosed) {
		t.Fatalf("Group.Send after Close = %v, want ErrGroupClosed", err)
	}
	if err := nodes[0].Send([]byte("x")); !errors.Is(err, ErrGroupClosed) {
		t.Fatalf("Node.Send after Close = %v, want ErrGroupClosed", err)
	}
}

// TestWindowCreditAccountingAcrossReconfig floods while the group
// reconfigures plain→Mecho and asserts no credit is lost or
// double-released: at quiescence every acquire has exactly one release
// and the window is empty. Runs under -race in short mode.
func TestWindowCreditAccountingAcrossReconfig(t *testing.T) {
	w := hybridWorld(t, 44)
	members := []NodeID{1, 2, 10}
	kinds := map[NodeID]Kind{1: Fixed, 2: Fixed, 10: Mobile}
	var delivered atomic.Int64
	nodes := make(map[NodeID]*Node)
	for _, id := range members {
		id := id
		n, err := Start(Config{
			World: w, ID: id, Kind: kinds[id], Members: members,
			Policies:        []Policy{core.HybridMechoPolicy{}},
			ContextInterval: 30 * time.Millisecond,
			EvalInterval:    40 * time.Millisecond,
			PublishOnChange: true,
			SendWindow:      16,
			OnMessage: func(from NodeID, payload []byte) {
				if id == 1 {
					delivered.Add(1)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes[id] = n
	}
	const msgs = 120
	mob := nodes[10].Group(DefaultGroup)
	for i := 0; i < msgs; i++ {
		if err := mob.Send([]byte(fmt.Sprintf("flood-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, 30*time.Second, "reconfigured to mecho under load", func() bool {
		return nodes[10].ConfigName() == core.MechoConfigName(1)
	})
	eventually(t, 30*time.Second, "observer delivers the flood", func() bool {
		return delivered.Load() >= msgs
	})
	eventually(t, 30*time.Second, "credits all return", func() bool {
		st := mob.FlowStats()
		return st.Window.InUse == 0 && st.BufferedSends == 0
	})
	st := mob.FlowStats().Window
	if st.Acquired != uint64(msgs) {
		t.Errorf("acquired %d credits for %d sends", st.Acquired, msgs)
	}
	if st.Acquired != st.Released {
		t.Errorf("credit accounting across reconfiguration: acquired %d != released %d", st.Acquired, st.Released)
	}
	if st.HighWater > 16 {
		t.Errorf("window high water %d exceeds capacity 16", st.HighWater)
	}
	if ev := mob.FlowStats().Nak.Evicted; ev != 0 {
		t.Errorf("%d retention-cap evictions under windowed load", ev)
	}
}

// TestUnboundedNakConfigRejected is the satellite guard: a negative
// StableInterval (stability gossip off — the only bound on retransmission
// buffers) is rejected at the facade and at the XML layer factory.
func TestUnboundedNakConfigRejected(t *testing.T) {
	w := hybridWorld(t, 45)
	_, err := Start(Config{
		World: w, ID: 1, Kind: Fixed, Members: []NodeID{1},
		StableInterval: -1,
	})
	if !errors.Is(err, group.ErrUnboundedNak) {
		t.Fatalf("Start with negative StableInterval = %v, want ErrUnboundedNak", err)
	}

	cfg := group.NakConfig{Self: 1, StableInterval: -1}
	if err := cfg.Validate(); !errors.Is(err, group.ErrUnboundedNak) {
		t.Fatalf("Validate = %v, want ErrUnboundedNak", err)
	}

	// XML path: a document pinning stable-interval negative fails to
	// deploy.
	doc := core.PlainConfig()
	for i := range doc.Channels[0].Sessions {
		if doc.Channels[0].Sessions[i].Layer == "group.nak" {
			doc.Channels[0].Sessions[i].Params = append(doc.Channels[0].Sessions[i].Params,
				appiaxml.ParamSpec{Name: "stable-interval", Value: "-1s"})
		}
	}
	if _, err := Start(Config{
		World: w, ID: 2, Kind: Fixed, Members: []NodeID{2},
		InitialConfig: doc, InitialConfigName: "leaky",
	}); !errors.Is(err, group.ErrUnboundedNak) {
		t.Fatalf("deploy of gossip-less config = %v, want ErrUnboundedNak", err)
	}
}

// TestNegativeSendWindowRejected pins the other retired unbounded-memory
// mode: a negative SendWindow no longer means "windowing off" — Start and
// Join refuse it, and the refused Join leaves the node usable.
func TestNegativeSendWindowRejected(t *testing.T) {
	w := hybridWorld(t, 47)
	if _, err := Start(Config{
		World: w, ID: 1, Kind: Fixed, Members: []NodeID{1},
		SendWindow: -1,
	}); err == nil {
		t.Fatal("Start accepted SendWindow -1")
	}
	n, err := Start(Config{World: w, ID: 2, Kind: Fixed, Members: []NodeID{2}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Join("aux", GroupConfig{SendWindow: -1}); err == nil {
		t.Fatal("Join accepted SendWindow -1")
	}
	if _, err := n.Join("aux", GroupConfig{SendWindow: 4}); err != nil {
		t.Fatalf("Join after the refused one: %v", err)
	}
}

// TestGroupEndpointAccountingParity is the multicast-accounting satellite:
// the per-group transmission counters must mirror the substrate contract
// exactly on every backend — self-sends uncounted, multicast one
// unconditional transmission, unicast counted per send.
func TestGroupEndpointAccountingParity(t *testing.T) {
	backends := map[string]func(t *testing.T) (a, b netio.Endpoint){
		"vnet": func(t *testing.T) (netio.Endpoint, netio.Endpoint) {
			w := vnet.NewWorld(7)
			t.Cleanup(func() { _ = w.Close() })
			w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})
			a, err := w.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed, Segments: []string{"lan"}})
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed, Segments: []string{"lan"}})
			if err != nil {
				t.Fatal(err)
			}
			return a, b
		},
		"loopnet": func(t *testing.T) (netio.Endpoint, netio.Endpoint) {
			nw := loopnet.New()
			t.Cleanup(func() { _ = nw.Close() })
			a, err := nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed, Segments: []string{"lan"}})
			if err != nil {
				t.Fatal(err)
			}
			b, err := nw.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed, Segments: []string{"lan"}})
			if err != nil {
				t.Fatal(err)
			}
			return a, b
		},
	}
	if !testing.Short() {
		backends["udpnet"] = func(t *testing.T) (netio.Endpoint, netio.Endpoint) {
			nw, err := udpnet.New(udpnet.Config{
				Peers:  map[netio.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"},
				Groups: map[string]string{"lan": "239.77.9.9:9709"},
			})
			if err != nil {
				t.Skipf("udpnet unavailable: %v", err)
			}
			t.Cleanup(func() { _ = nw.Close() })
			a, err := nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed, Segments: []string{"lan"}})
			if err != nil {
				t.Skipf("udpnet attach: %v", err)
			}
			b, err := nw.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed, Segments: []string{"lan"}})
			if err != nil {
				t.Skipf("udpnet attach: %v", err)
			}
			return a, b
		}
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			raw, _ := mk(t)
			gep := &groupEndpoint{Endpoint: raw}
			payload := []byte("parity")
			compare := func(stage string, wantMsgs uint64) {
				t.Helper()
				sub := raw.Counters().Tx[ClassData]
				grp := gep.counters.Snapshot().Tx[ClassData]
				if sub.Msgs != wantMsgs || sub.Bytes != wantMsgs*uint64(len(payload)) {
					t.Errorf("%s: substrate tx = %+v, want %d msgs", stage, sub, wantMsgs)
				}
				if grp.Msgs != sub.Msgs || grp.Bytes != sub.Bytes {
					t.Errorf("%s: group accounting diverges from substrate: group %+v vs substrate %+v", stage, grp, sub)
				}
			}

			// Self-send: neither the substrate nor the group view counts
			// (it never touches the NIC).
			if err := gep.Send(raw.ID(), "p", ClassData, payload); err != nil {
				t.Fatal(err)
			}
			// Peer unicast: both count one.
			if err := gep.Send(2, "p", ClassData, payload); err != nil {
				t.Fatal(err)
			}
			compare("self+unicast", 1)

			// Native multicast: both count exactly one transmission,
			// regardless of how many endpoints receive it.
			if err := gep.Multicast("lan", "p", ClassData, payload); err != nil {
				// A sandbox without a multicast route can fail the write;
				// the substrate counts the keyed-up transmission while the
				// per-group view does not count errored sends — that
				// error-path divergence is documented, not asserted.
				t.Logf("multicast unavailable here (%v); parity asserted for self+unicast only", err)
				return
			}
			compare("multicast", 2)
		})
	}
}
