package group

import (
	"fmt"
	"testing"
	"time"

	"morpheus/internal/appia"
)

// TestCausalChainAcrossThreeNodes builds a three-link causal chain
// a→b→c across distinct senders and checks no member ever sees an effect
// before its cause.
func TestCausalChainAcrossThreeNodes(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{causal: true})
	nodes[0].cast(t, "a")
	eventually(t, 5*time.Second, "node2 saw a", func() bool {
		g := nodes[1].deliveredList()
		return len(g) >= 1 && g[len(g)-1] == "a"
	})
	nodes[1].cast(t, "b")
	eventually(t, 5*time.Second, "node3 saw b", func() bool {
		g := nodes[2].deliveredList()
		return len(g) >= 1 && g[len(g)-1] == "b"
	})
	nodes[2].cast(t, "c")
	for _, tn := range nodes {
		tn := tn
		eventually(t, 5*time.Second, fmt.Sprintf("node %d has the chain", tn.id), func() bool {
			return len(tn.deliveredList()) == 3
		})
		got := tn.deliveredList()
		pos := map[string]int{}
		for i, m := range got {
			pos[m] = i
		}
		if !(pos["a"] < pos["b"] && pos["b"] < pos["c"]) {
			t.Fatalf("node %d: causal order violated: %v", tn.id, got)
		}
	}
}

// TestCausalConcurrentMessagesAllDelivered: concurrent (causally unrelated)
// messages may deliver in any relative order but must all arrive.
func TestCausalConcurrentMessagesAllDelivered(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{causal: true, loss: 0.1, seed: 23})
	const k = 15
	for i := 0; i < k; i++ {
		for _, tn := range nodes {
			tn.cast(t, fmt.Sprintf("c%d-%02d", tn.id, i))
		}
	}
	for _, tn := range nodes {
		tn := tn
		eventually(t, 15*time.Second, fmt.Sprintf("node %d delivers all %d", tn.id, 3*k), func() bool {
			return len(tn.deliveredList()) == 3*k
		})
	}
}

// TestHoldFlushEmitsQuiescent drives the reconfiguration quiescence path
// directly at the GMS level: TriggerFlush{Hold} must block the channel,
// equalise deliveries, and surface a Quiescent event.
func TestHoldFlushEmitsQuiescent(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{})
	for i := 0; i < 10; i++ {
		nodes[i%3].cast(t, fmt.Sprintf("pre%02d", i))
	}
	if err := nodes[0].ch.Insert(&TriggerFlush{Hold: true}, appia.Down); err != nil {
		t.Fatal(err)
	}
	// Every member must observe quiescence.
	for _, tn := range nodes {
		tn := tn
		eventually(t, 10*time.Second, fmt.Sprintf("node %d quiescent", tn.id), func() bool {
			tn.mu.Lock()
			defer tn.mu.Unlock()
			for _, ev := range tn.events {
				if _, ok := ev.(*Quiescent); ok {
					return true
				}
			}
			return false
		})
	}
	// At quiescence all members have identical delivered sets.
	base := sortedCopy(nodes[0].deliveredList())
	if len(base) != 10 {
		t.Fatalf("coordinator delivered %d of 10 before quiescence", len(base))
	}
	for _, tn := range nodes[1:] {
		got := sortedCopy(tn.deliveredList())
		if len(got) != len(base) {
			t.Fatalf("node %d delivered %d, coordinator %d", tn.id, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("node %d: delivered sets differ at %d", tn.id, i)
			}
		}
	}
	// Sends issued while held must buffer, not flow.
	nodes[1].cast(t, "held-back")
	time.Sleep(100 * time.Millisecond)
	for _, tn := range nodes {
		for _, m := range tn.deliveredList() {
			if m == "held-back" {
				t.Fatal("channel leaked a message while held quiescent")
			}
		}
	}
}

// TestStabilityPrunesBuffers verifies the stability machinery actually
// bounds memory: after gossip rounds, the senders' retransmission buffers
// shrink to (near) zero.
func TestStabilityPrunesBuffers(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{})
	const k = 50
	for i := 0; i < k; i++ {
		nodes[0].cast(t, fmt.Sprintf("p%02d", i))
	}
	eventually(t, 5*time.Second, "all deliver", func() bool {
		for _, tn := range nodes {
			if len(tn.deliveredList()) != k {
				return false
			}
		}
		return true
	})
	sess, ok := nodes[0].ch.SessionFor("group.nak").(*nakSession)
	if !ok {
		t.Fatal("nak session missing")
	}
	eventually(t, 5*time.Second, "send buffer pruned", func() bool {
		var n int
		done := make(chan struct{})
		if err := nodes[0].sched.Do(func() {
			n = sess.sent.live
			close(done)
		}); err != nil {
			return false
		}
		<-done
		return n == 0
	})
}
