package group

import (
	"testing"
	"time"

	"morpheus/internal/appia"
)

// TestDebugRemoteDelivery traces the wire path of one cast between two
// members, dumping vnet counters when it fails.
func TestDebugRemoteDelivery(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{})
	nodes[0].cast(t, "probe")
	nodes[1].cast(t, "probe2")

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(nodes[1].deliveredList()) == 2 && len(nodes[2].deliveredList()) == 2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, tn := range nodes {
		t.Logf("node%d delivered: %v", i+1, tn.deliveredList())
	}
	c0 := nodes[0].node.Counters()
	c1 := nodes[1].node.Counters()
	t.Logf("node1 tx=%v rx=%v", c0.Tx, c0.Rx)
	t.Logf("node2 tx=%v rx=%v", c1.Tx, c1.Rx)
	nodes[1].mu.Lock()
	for _, ev := range nodes[1].events {
		t.Logf("node2 top delivery (non-cast): %T dir=%v", ev, ev.(interface{ Dir() appia.Direction }).Dir())
	}
	nodes[1].mu.Unlock()
	t.Fatal("probe never delivered at node 2")
}

// TestDebugLossRecovery inspects the nak session state when recovery under
// loss stalls.
func TestDebugLossRecovery(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{loss: 0.25, seed: 7})
	const k = 40
	for i := 0; i < k; i++ {
		nodes[0].cast(t, "x")
	}
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, tn := range nodes {
			if len(tn.deliveredList()) != k {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, tn := range nodes {
		t.Logf("node%d delivered=%d", i+1, len(tn.deliveredList()))
		sess := tn.ch.SessionFor("group.nak").(*nakSession)
		done := make(chan struct{})
		if err := tn.sched.Do(func() {
			defer close(done)
			t.Logf("  nextSeq=%d sent=%d", sess.nextSeq, sess.sent.live)
			for o, st := range sess.recv {
				t.Logf("  origin %d: next=%d known=%d buffered=%d armed=%v tries=%d",
					o, st.next, st.known, st.reorder.live, st.cancel != nil, st.nackTries)
			}
		}); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	t.Fatal("recovery stalled")
}
