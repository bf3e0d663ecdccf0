package stack

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/group"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
)

// TestReconfigureKeepsSendOrder pins per-origin FIFO across the §3.3
// resubmission: one goroutine sends numbered payloads as fast as it can
// while the stack is reconfigured under it, and the deliveries must come up
// in exactly the order the Sends returned. The window is wide enough that
// the sender is never parked on a credit when finishReconfig runs — that is
// the interleaving in which a direct Send used to overtake the casts still
// waiting in the resubmit buffer.
func TestReconfigureKeepsSendOrder(t *testing.T) {
	nw := loopnet.New()
	t.Cleanup(func() { _ = nw.Close() })
	ep, err := nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed, Segments: []string{"lan"}})
	if err != nil {
		t.Fatal(err)
	}
	sched := appia.NewScheduler()
	t.Cleanup(sched.Close)

	var (
		mu        sync.Mutex
		delivered []uint64
	)
	m := NewManager(ManagerConfig{
		Node: ep, Self: 1, Scheduler: sched,
		SendWindow: 1 << 14,
		OnDeliver: func(ev *group.CastEvent) {
			mu.Lock()
			delivered = append(delivered, binary.BigEndian.Uint64(ev.Msg.Bytes()))
			mu.Unlock()
		},
		Logf: func(string, ...any) {},
	})
	t.Cleanup(func() { _ = m.Close() })
	doc := &appiaxml.Document{Channels: []appiaxml.ChannelSpec{{
		Name: "data",
		Sessions: []appiaxml.SessionSpec{
			{Layer: "transport.ptp"},
			{Layer: "group.fanout"},
			// A one-member group retires casts (and returns their credits)
			// only at its own gossip points; keep them frequent.
			{Layer: "group.nak", Params: []appiaxml.ParamSpec{{Name: "stable-every", Value: "64"}}},
			{Layer: "group.gms"},
		},
	}}}
	members := []appia.NodeID{1}
	if err := m.Deploy(doc, "plain", 1, members); err != nil {
		t.Fatal(err)
	}

	var (
		stop    atomic.Bool
		sent    uint64
		sendErr error
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		var payload [8]byte
		for !stop.Load() {
			binary.BigEndian.PutUint64(payload[:], sent)
			if sendErr = m.Send(payload[:]); sendErr != nil {
				return
			}
			sent++
		}
	}()
	for epoch := uint64(2); epoch <= 9; epoch++ {
		time.Sleep(2 * time.Millisecond)
		if err := m.Reconfigure(doc, "plain", epoch, members); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	<-done
	if sendErr != nil {
		t.Fatalf("Send: %v", sendErr)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := uint64(len(delivered))
		mu.Unlock()
		if n >= sent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d casts", n, sent)
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, got := range delivered {
		if got != uint64(i) {
			t.Fatalf("delivery %d carries cast %d: a Send overtook %d resubmitted casts (of %d sent)",
				i, got, got-uint64(i), sent)
		}
	}
}
