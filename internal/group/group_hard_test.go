package group

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/transport"
	"morpheus/internal/vnet"
)

// TestSenderCrashMidStream: a sender crashes after its messages reached
// only some members. View synchrony demands that the survivors converge on
// the same delivered set — the peer-retransmission history makes that
// possible even though the origin is gone.
func TestSenderCrashMidStream(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{
		enableFD: true,
		gms: GMSConfig{
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectAfter:      120 * time.Millisecond,
		},
	})
	// Node 3 sends a stream, then crashes abruptly.
	const k = 20
	for i := 0; i < k; i++ {
		nodes[2].cast(t, fmt.Sprintf("s%02d", i))
	}
	// Give the stream a moment to spread partially, then kill.
	time.Sleep(10 * time.Millisecond)
	nodes[2].node.SetDown(true)

	// Survivors must install a 2-member view...
	for _, tn := range nodes[:2] {
		tn := tn
		eventually(t, 10*time.Second, fmt.Sprintf("node %d evicts crashed sender", tn.id), func() bool {
			vs := tn.viewList()
			last := vs[len(vs)-1]
			return len(last.Members) == 2
		})
	}
	// ...and agree exactly on what was delivered from the dead sender.
	eventually(t, 10*time.Second, "survivors converge", func() bool {
		a := nodes[0].deliveredList()
		b := nodes[1].deliveredList()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	})
}

// TestJoinAfterTraffic: a node joins an active group via JoinReq; the
// state transfer must let it participate without replaying history.
func TestJoinAfterTraffic(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{})
	const pre = 10
	for i := 0; i < pre; i++ {
		nodes[0].cast(t, fmt.Sprintf("old%02d", i))
	}
	eventually(t, 5*time.Second, "pre-join traffic settles", func() bool {
		for _, tn := range nodes {
			if len(tn.deliveredList()) != pre {
				return false
			}
		}
		return true
	})

	// Build a fourth node attached to the same world and stack shape but
	// bootstrapped with only itself; it joins through node 1.
	joiner := addJoiner(t, nodes, 4)
	gsess, ok := joiner.ch.SessionFor("group.gms").(*gmsSession)
	if !ok {
		t.Fatal("gms session missing")
	}
	done := make(chan struct{})
	if err := joiner.sched.Do(func() {
		defer close(done)
		gsess.RequestJoin(joiner.ch, 1)
	}); err != nil {
		t.Fatal(err)
	}
	<-done

	// Everyone, including the joiner, must install a 4-member view.
	all := append(append([]*testNode(nil), nodes...), joiner)
	for _, tn := range all {
		tn := tn
		eventually(t, 10*time.Second, fmt.Sprintf("node %d installs 4-member view", tn.id), func() bool {
			vs := tn.viewList()
			if len(vs) == 0 {
				return false
			}
			return len(vs[len(vs)-1].Members) == 4
		})
	}
	// Fresh traffic reaches the joiner; history does not replay.
	preJoiner := len(joiner.deliveredList())
	nodes[1].cast(t, "fresh")
	for _, tn := range all {
		tn := tn
		eventually(t, 10*time.Second, fmt.Sprintf("node %d gets post-join cast", tn.id), func() bool {
			got := tn.deliveredList()
			return len(got) > 0 && got[len(got)-1] == "fresh"
		})
	}
	if got := len(joiner.deliveredList()); got != preJoiner+1 {
		t.Fatalf("joiner delivered %d new messages, want 1 (no history replay)", got-preJoiner)
	}
}

// addJoiner creates one more stack member bootstrapped as a singleton.
func addJoiner(t *testing.T, cluster []*testNode, id appia.NodeID) *testNode {
	t.Helper()
	w := cluster[0].node.World()
	vn, err := w.AddNode(id, vnet.Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}
	tn := &testNode{id: id, node: vn, sched: appia.NewScheduler()}
	t.Cleanup(tn.sched.Close)
	members := []appia.NodeID{id} // knows only itself; learns the rest on join
	q, err := appia.NewQoS("join",
		transport.NewPTPLayer(transport.Config{Node: vn, Port: "grp", Logf: t.Logf}),
		NewFanoutLayer(FanoutConfig{Self: id, InitialMembers: members}),
		NewNakLayer(NakConfig{Self: id, InitialMembers: members, NackDelay: 10 * time.Millisecond, StableInterval: 50 * time.Millisecond}),
		NewGMSLayer(GMSConfig{Self: id, InitialMembers: members}),
	)
	if err != nil {
		t.Fatal(err)
	}
	tn.ch = q.CreateChannel("data", tn.sched, appia.WithDeliver(func(ev appia.Event) {
		tn.mu.Lock()
		defer tn.mu.Unlock()
		if _, ok := ev.(appia.Sendable); !ok { // the channel releases a Sendable after the upcall
			tn.events = append(tn.events, ev)
		}
		switch e := ev.(type) {
		case *CastEvent:
			tn.delivered = append(tn.delivered, string(e.Msg.Bytes()))
		case *ViewInstall:
			tn.views = append(tn.views, e.View)
		}
	}))
	if err := tn.ch.Start(); err != nil {
		t.Fatal(err)
	}
	if !tn.ch.WaitReady(2 * time.Second) {
		t.Fatal("joiner never ready")
	}
	return tn
}

// TestTotalOrderSurvivesSequencerCrash: the coordinator (sequencer) dies;
// the new coordinator must deterministically order whatever was left
// unordered, and total order must hold throughout.
func TestTotalOrderSurvivesSequencerCrash(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{
		total:    true,
		enableFD: true,
		gms: GMSConfig{
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectAfter:      120 * time.Millisecond,
		},
	})
	const k = 15
	for i := 0; i < k; i++ {
		nodes[i%3].cast(t, fmt.Sprintf("t%02d-%d", i, i%3))
	}
	time.Sleep(5 * time.Millisecond)
	nodes[0].node.SetDown(true) // kill the sequencer

	// Survivors continue; new casts still get ordered by node 2.
	for i := 0; i < 5; i++ {
		nodes[1].cast(t, fmt.Sprintf("post%d", i))
	}
	eventually(t, 15*time.Second, "survivors deliver all surviving casts in agreement", func() bool {
		a, b := nodes[1].deliveredList(), nodes[2].deliveredList()
		if len(a) < 5 || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// The post-crash messages must be in there.
		seen := 0
		for _, m := range a {
			if len(m) >= 4 && m[:4] == "post" {
				seen++
			}
		}
		return seen == 5
	})
}

// TestConcurrentSendersUnderLossConverge is a stress: three senders, 20%
// loss, everyone must deliver everyone's full FIFO stream.
func TestConcurrentSendersUnderLossConverge(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{loss: 0.2, seed: 17})
	const k = 25
	for i := 0; i < k; i++ {
		for _, tn := range nodes {
			tn.cast(t, fmt.Sprintf("n%d-%02d", tn.id, i))
		}
	}
	for _, tn := range nodes {
		tn := tn
		eventually(t, 20*time.Second, fmt.Sprintf("node %d delivers all %d", tn.id, 3*k), func() bool {
			return len(tn.deliveredList()) == 3*k
		})
		// Per-sender FIFO must hold.
		got := tn.deliveredList()
		next := map[byte]int{}
		for _, m := range got {
			sender := m[1]
			var idx int
			if _, err := fmt.Sscanf(m[3:], "%02d", &idx); err != nil {
				t.Fatalf("bad payload %q", m)
			}
			if idx != next[sender] {
				t.Fatalf("node %d: FIFO violation for sender %c: got %d want %d", tn.id, sender, idx, next[sender])
			}
			next[sender]++
		}
	}
}

// Property: DeliveredVector.Equal is reflexive, symmetric, and treats
// zero entries as absent.
func TestDeliveredVectorEqualProperty(t *testing.T) {
	f := func(keys []uint8, vals []uint8) bool {
		dv := DeliveredVector{}
		for i, k := range keys {
			if i < len(vals) && vals[i] > 0 {
				dv[appia.NodeID(k)] = uint64(vals[i])
			}
		}
		if !dv.Equal(dv) {
			return false
		}
		cp := dv.Clone()
		if !dv.Equal(cp) || !cp.Equal(dv) {
			return false
		}
		cp[999] = 0 // explicit zero equals absent
		return dv.Equal(cp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: view encode/decode round-trips for any member set.
func TestViewEncodingProperty(t *testing.T) {
	f := func(id uint64, raw []uint16) bool {
		ms := make([]appia.NodeID, len(raw))
		for i, r := range raw {
			ms[i] = appia.NodeID(r)
		}
		in := View{ID: id, Members: NormalizeMembers(ms)}
		var m appia.Message
		pushView(&m, in)
		out, err := popView(&m)
		if err != nil || out.ID != in.ID || len(out.Members) != len(in.Members) {
			return false
		}
		for i := range in.Members {
			if out.Members[i] != in.Members[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
