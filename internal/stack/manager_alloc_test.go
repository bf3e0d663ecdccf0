package stack

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/group"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
)

// TestSteadyStateAllocsPerCast is the message and event pools' loop-closed
// guard: on a three-member plain stack over loopnet, a 128-byte cast — sent,
// fanned out, delivered at all three members, retained until stable, retired
// — costs at most 4 heap allocations end to end (~1.7: timers, stability
// vectors, pool misses). Every cast buffer and every event is released where
// its life ends (DESIGN.md "Kernel data plane" lists the points); a change
// that drops one of them shows up here as one to three allocations per cast,
// one that leaves the events to the GC as ~7.7, and one that reopens the
// message loop as ~38, instead of waiting for the ledger. The figure counts
// everything the process allocates, the test's own polling included.
func TestSteadyStateAllocsPerCast(t *testing.T) {
	if raceBuild {
		t.Skip("race build: released messages and events are poisoned, not recycled")
	}
	const members = 3
	ids := []appia.NodeID{1, 2, 3}
	nw := loopnet.New()
	t.Cleanup(func() { _ = nw.Close() })
	// The standard plain configuration: stability gossip every 64 deliveries.
	doc := plainDoc()
	doc.Channels[0].Sessions[2].Params = []appiaxml.ParamSpec{{Name: "stable-every", Value: "64"}}
	var delivered [members]atomic.Int64
	var sender *Manager
	for i, id := range ids {
		ep, err := nw.Attach(netio.EndpointConfig{ID: id, Kind: netio.Fixed, Segments: []string{"lan"}})
		if err != nil {
			t.Fatal(err)
		}
		sched := appia.NewScheduler()
		t.Cleanup(sched.Close)
		count := &delivered[i]
		m := NewManager(ManagerConfig{
			Node: ep, Self: id, Scheduler: sched,
			OnDeliver: func(ev *group.CastEvent) {
				if ev.Msg.Len() == 128 {
					count.Add(1)
				}
			},
		})
		t.Cleanup(func() { _ = m.Close() })
		if err := m.Deploy(doc, "plain", 1, ids); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			sender = m
		}
	}

	payload := make([]byte, 128)
	var sent int64
	cast := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := sender.Send(payload); err != nil {
				t.Fatal(err)
			}
		}
		sent += int64(n)
		deadline := time.Now().Add(30 * time.Second)
		for i := range delivered {
			for delivered[i].Load() < sent {
				if time.Now().After(deadline) {
					t.Fatalf("member %d delivered %d of %d casts", i+1, delivered[i].Load(), sent)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}

	cast(4000) // warm-up: pools filled, rings and mailboxes at their working size
	const casts = 10_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cast(casts)
	runtime.ReadMemStats(&after)
	perCast := float64(after.Mallocs-before.Mallocs) / casts
	t.Logf("%.2f allocs/cast", perCast)
	if perCast > 4 {
		t.Fatalf("%.2f allocs per cast in steady state, want at most 4", perCast)
	}
}
