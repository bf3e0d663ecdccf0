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
	var (
		mu        sync.Mutex
		delivered []uint64
	)
	m, dep := loneManager(t, ManagerConfig{
		SendWindow: 1 << 14,
		OnDeliver: func(ev *group.CastEvent) {
			mu.Lock()
			delivered = append(delivered, binary.BigEndian.Uint64(ev.Msg.Bytes()))
			mu.Unlock()
		},
	})

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
		dep.Epoch = epoch
		if err := m.Reconfigure(dep); err != nil {
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

// loneManager deploys the plain stack for a one-member group on loopnet and
// returns the manager with the deployment it runs (epoch 1).
func loneManager(t *testing.T, cfg ManagerConfig) (*Manager, Deployment) {
	t.Helper()
	nw := loopnet.New()
	t.Cleanup(func() { _ = nw.Close() })
	ep, err := nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed, Segments: []string{"lan"}})
	if err != nil {
		t.Fatal(err)
	}
	sched := appia.NewScheduler()
	t.Cleanup(sched.Close)
	cfg.Node, cfg.Self, cfg.Scheduler = ep, 1, sched
	cfg.Logf = func(string, ...any) {}
	m := NewManager(cfg)
	t.Cleanup(func() { _ = m.Close() })
	dep := Deployment{Epoch: 1, ConfigName: "plain", Members: []appia.NodeID{1}, Doc: &appiaxml.Document{
		Channels: []appiaxml.ChannelSpec{{
			Name: "data",
			Sessions: []appiaxml.SessionSpec{
				{Layer: "transport.ptp"},
				{Layer: "group.fanout"},
				// A one-member group retires casts (and returns their credits)
				// only at its own gossip points; keep them frequent.
				{Layer: "group.nak", Params: []appiaxml.ParamSpec{{Name: "stable-every", Value: "64"}}},
				{Layer: "group.gms"},
			},
		}},
	}}
	if err := m.Deploy(dep.Doc, dep.ConfigName, dep.Epoch, dep.Members); err != nil {
		t.Fatal(err)
	}
	return m, dep
}

// TestReconfigureRescuesPendingCastWithItsCredit parks a byte-windowed cast
// in the GMS pending buffer the way a *remotely* initiated flush does — the
// channel blocks before this node's manager knows a reconfiguration is coming
// — and reconfigures. The cast must be rescued, resubmitted and delivered,
// and it must carry the credit submit charged: at quiescence both windows
// have released exactly what they acquired.
func TestReconfigureRescuesPendingCastWithItsCredit(t *testing.T) {
	got := make(chan string, 1)
	m, dep := loneManager(t, ManagerConfig{
		SendWindow:      4,
		SendWindowBytes: 16, // the payload below is clamped to this
		OnDeliver:       func(ev *group.CastEvent) { got <- string(ev.Msg.Bytes()) },
	})
	old := m.Channel()
	if err := old.Insert(&group.TriggerFlush{Hold: true}, appia.Down); err != nil {
		t.Fatal(err)
	}
	// The Quiescent upcall is ordered after the block on the scheduler, so
	// once the manager has seen it the Send below can only land in pending.
	waitFor(t, "the held flush to quiesce the channel", func() bool {
		m.state.Lock()
		defer m.state.Unlock()
		return m.state.quiescentSeen
	})
	payload := "a payload longer than the byte window"
	if err := m.Send([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		t.Fatalf("cast %q delivered by a blocked channel", p)
	case <-time.After(20 * time.Millisecond):
	}
	if fs := m.FlowStats(); fs.Window.InUse != 1 || fs.WindowBytes.InUse != 16 {
		t.Fatalf("parked cast holds %d credits / %d bytes, want 1 / 16", fs.Window.InUse, fs.WindowBytes.InUse)
	}

	dep.Epoch = 2
	if err := m.Reconfigure(dep); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p != payload {
			t.Fatalf("rescued cast delivered %q", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked cast died with its channel")
	}
	// A lone member's casts retire at its gossip points and at a view install:
	// force the latter.
	if err := m.Channel().Insert(&group.TriggerFlush{}, appia.Down); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both windows to drain", func() bool {
		fs := m.FlowStats()
		return fs.Window.InUse == 0 && fs.WindowBytes.InUse == 0
	})
	fs := m.FlowStats()
	if fs.Window.Acquired != 1 || fs.Window.Released != 1 {
		t.Errorf("message window acquired %d, released %d, want 1 and 1", fs.Window.Acquired, fs.Window.Released)
	}
	if fs.WindowBytes.Acquired != 16 || fs.WindowBytes.Released != 16 {
		t.Errorf("byte window acquired %d, released %d, want 16 and 16", fs.WindowBytes.Acquired, fs.WindowBytes.Released)
	}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDeploymentSnapshotIsConsistent spins Reconfigure between two
// configurations while a reader asserts that every snapshot's epoch, name
// and document belong together. Read through separately locked accessors
// (as core's group-info answer used to), an install landing between two
// reads paired epoch n's XML with epoch n+1's number and name.
func TestDeploymentSnapshotIsConsistent(t *testing.T) {
	m, dep := loneManager(t, ManagerConfig{})
	docs := [2]*appiaxml.Document{dep.Doc, {Channels: dep.Doc.Channels}}
	names := [2]string{"odd", "even"}
	at := func(epoch uint64) Deployment {
		d := dep
		d.Epoch, d.ConfigName, d.Doc = epoch, names[epoch%2], docs[epoch%2]
		return d
	}
	if err := m.Reconfigure(at(2)); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if d := m.Deployment(); d.ConfigName != names[d.Epoch%2] || d.Doc != docs[d.Epoch%2] {
				t.Errorf("torn snapshot: epoch %d carries name %q (want %q), its own document: %t",
					d.Epoch, d.ConfigName, names[d.Epoch%2], d.Doc == docs[d.Epoch%2])
				return
			}
		}
	}()
	for epoch := uint64(3); epoch <= 200; epoch++ {
		if err := m.Reconfigure(at(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	<-done
}
