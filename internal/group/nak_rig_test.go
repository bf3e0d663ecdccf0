package group

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/flowctl"
)

// nakRig drives one bare nakSession: a tap layer below it records what the
// session puts on the wire, the channel's deliver upcall records what it
// hands the application, and one counter stands in for the send windows.
// Timers are set to an hour and fired by hand, so every step is explicit.
type nakRig struct {
	t     *testing.T
	sched *appia.Scheduler
	ch    *appia.Channel
	sess  *nakSession
	wire  []appia.Event // down-direction events that reached the bottom
	app   []castID      // casts delivered upward
	win   creditCount
	// wedged is set when the scheduler goroutine is known to be stuck in a
	// Handle that will not return: cleanup must not wait for it.
	wedged bool
}

// castID is what the rig keeps of a delivered cast: the channel releases the
// event once the upcall returns.
type castID struct {
	Origin appia.NodeID
	Seq    uint64
}

// creditCount sums what the session released.
type creditCount struct{ flowctl.Credit }

func (c *creditCount) Release(r flowctl.Credit) {
	c.Msgs += r.Msgs
	c.Bytes += r.Bytes
}

func newNakRig(t *testing.T, cfg NakConfig) *nakRig {
	t.Helper()
	r := &nakRig{t: t, sched: appia.NewScheduler()}
	cfg.NackDelay, cfg.StableInterval = time.Hour, time.Hour
	cfg.Credits = &r.win
	tap := &appia.BaseLayer{LayerName: "tap", LayerSpec: appia.LayerSpec{
		Accepts: []appia.EventType{appia.TIface[appia.Sendable](), appia.T[*ViewInstall]()},
	}}
	q, err := appia.NewQoS("bare-nak", tapLayer{tap, func(ch *appia.Channel, ev appia.Event) {
		if d, ok := ev.(interface{ Dir() appia.Direction }); ok && d.Dir() == appia.Down {
			if _, lifecycle := ev.(*appia.ChannelClose); !lifecycle {
				r.wire = append(r.wire, ev)
				return
			}
		}
		ch.Forward(ev)
	}}, NewNakLayer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	r.ch = q.CreateChannel("data", r.sched, appia.WithDeliver(func(ev appia.Event) {
		if c, ok := ev.(*CastEvent); ok {
			r.app = append(r.app, castID{c.Origin, c.Seq})
		}
	}))
	r.sess = r.ch.SessionFor("group.nak").(*nakSession)
	if err := r.ch.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !r.wedged {
			r.sched.Close()
		}
	})
	r.settle()
	return r
}

type tapLayer struct {
	*appia.BaseLayer
	handle appia.SessionFunc
}

func (l tapLayer) NewSession() appia.Session { return l.handle }

// settle waits until the scheduler has run everything the last inputs set in
// motion. Only this goroutine and the scheduler post (the timers are an hour
// out), so an empty mailbox after a flush means quiescence.
func (r *nakRig) settle() {
	r.t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			r.sched.Flush()
			if r.sched.MailboxDepth() == 0 {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		r.wedged = true
		r.t.Fatal("a Handle call did not return within 5 s")
	}
}

func (r *nakRig) insert(ev appia.Event, dir appia.Direction) {
	r.t.Helper()
	if err := r.ch.Insert(ev, dir); err != nil {
		r.t.Fatal(err)
	}
	r.settle()
}

// own casts an application payload from the session's own node.
func (r *nakRig) own(windowed bool, bytes int) {
	r.insert(ownCast(windowed, bytes), appia.Down)
}

func ownCast(windowed bool, bytes int) *CastEvent {
	ev := &CastEvent{}
	if windowed {
		ev.Credit = flowctl.Credit{Msgs: 1, Bytes: bytes}
	}
	ev.Msg = appia.NewMessage([]byte("own"))
	return ev
}

// recv feeds a cast from the wire, shaped as the origin's reliable layer
// sent it.
func (r *nakRig) recv(origin appia.NodeID, seq uint64) {
	r.insert(wireCast(origin, seq), appia.Up)
}

func wireCast(origin appia.NodeID, seq uint64) *CastEvent {
	ev := &CastEvent{}
	ev.Msg = appia.NewMessage([]byte(fmt.Sprintf("%d/%d", origin, seq)))
	ev.Msg.PushUvarint(seq)
	ev.Msg.PushUvarint(uint64(uint32(origin)))
	ev.Source = origin
	return ev
}

func wireNack(requester, origin appia.NodeID, from, to uint64) *Nack {
	n := &Nack{}
	m := n.EnsureMsg()
	m.PushUvarint(to)
	m.PushUvarint(from)
	m.PushUvarint(uint64(uint32(origin)))
	n.Source = requester
	return n
}

func wireStable(gossiper appia.NodeID, vec DeliveredVector) *Stable {
	st := &Stable{}
	m := st.EnsureMsg()
	vec.push(m)
	m.PushUvarint(uint64(uint32(gossiper)))
	st.Source = gossiper
	return st
}

// fire runs one of the session's private timer events, as DeliverAfter would.
func (r *nakRig) fire(ev appia.Event) {
	r.t.Helper()
	if err := r.sched.Do(func() { r.sess.Handle(r.ch, ev) }); err != nil {
		r.t.Fatal(err)
	}
	r.settle()
}

// takeWire returns and clears the recorded wire traffic.
func (r *nakRig) takeWire() []appia.Event {
	w := r.wire
	r.wire = nil
	return w
}

// retransmitted lists the sequence numbers of the casts in w addressed to
// dest, in wire order.
func retransmitted(t *testing.T, w []appia.Event, dest appia.NodeID) []uint64 {
	t.Helper()
	var seqs []uint64
	for _, ev := range w {
		c, ok := ev.(*CastEvent)
		if !ok || c.Dest != dest {
			continue
		}
		m := c.Msg.Clone()
		if _, err := m.PopUvarint(); err != nil { // origin
			t.Fatal(err)
		}
		seq, err := m.PopUvarint()
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// nackRange is what a Nack asks for.
type nackRange struct {
	origin   appia.NodeID
	from, to uint64
}

func nacks(w []appia.Event) []nackRange {
	var out []nackRange
	for _, ev := range w {
		if n, ok := ev.(*Nack); ok {
			out = append(out, nackRange{n.Origin, n.From, n.To})
		}
	}
	return out
}

func (r *nakRig) wantStats(want NakStats) {
	r.t.Helper()
	if got := r.sess.Stats(); got != want {
		r.t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func (r *nakRig) wantCredits(n, bytes int) {
	r.t.Helper()
	if r.win.Credit != (flowctl.Credit{Msgs: n, Bytes: bytes}) {
		r.t.Fatalf("released %+v, want %d credits / %d bytes", r.win.Credit, n, bytes)
	}
}

func wantSeqs(t *testing.T, what string, got []uint64, want ...uint64) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// TestNackRangeOffTheWireIsClamped sends the session a retransmission request
// for the range [1, 1<<62]. Answering it must cost a walk over what is
// retained — here three casts — not over the range.
func TestNackRangeOffTheWireIsClamped(t *testing.T) {
	r := newNakRig(t, NakConfig{Self: 1, InitialMembers: []appia.NodeID{1, 2, 3}})
	for i := 0; i < 3; i++ {
		r.own(false, 0)
	}
	r.recv(3, 1)
	r.takeWire()
	r.insert(wireNack(2, 1, 1, 1<<62), appia.Up) // settle fails the test if this never returns
	wantSeqs(t, "retransmitted own casts", retransmitted(t, r.takeWire(), 2), 1, 2, 3)
	r.insert(wireNack(2, 3, 0, ^uint64(0)), appia.Up)
	wantSeqs(t, "retransmitted history", retransmitted(t, r.takeWire(), 2), 1)
}

// TestNackServedAfterTheOriginalWasReleased: the transport releases a cast's
// message once the frame has left and the manager releases the self-delivered
// copy; a retransmission request arriving afterwards — with the pool's
// buffers recycled through other casts meanwhile — must still be answered
// with the original bytes, twice over.
func TestNackServedAfterTheOriginalWasReleased(t *testing.T) {
	r := newNakRig(t, NakConfig{Self: 1, InitialMembers: []appia.NodeID{1, 2, 3}})
	r.own(true, 3)
	r.recv(3, 1)
	r.releaseTraffic()
	for i := 0; i < 64; i++ { // churn: a wrongly freed buffer would be rewritten here
		appia.NewMessage([]byte(fmt.Sprintf("unrelated-%04d", i))).Release()
	}
	for round := 0; round < 2; round++ {
		r.insert(wireNack(2, 1, 1, 1), appia.Up)
		r.insert(wireNack(2, 3, 1, 1), appia.Up)
		w := r.takeWire()
		if len(w) != 2 {
			t.Fatalf("round %d: %d retransmissions, want 2", round, len(w))
		}
		for i, want := range []*CastEvent{wireCast(1, 1), wireCast(3, 1)} {
			if i == 0 {
				want.Msg = appia.NewMessage([]byte("own"))
				want.Msg.PushUvarint(1)
				want.Msg.PushUvarint(1)
			}
			got := w[i].(*CastEvent)
			if got.Dest != 2 || got.Class != appia.ClassControl || !bytes.Equal(got.Msg.Bytes(), want.Msg.Bytes()) {
				t.Fatalf("round %d: retransmission %d to %d (%s) carries %q, want %q",
					round, i, got.Dest, got.Class, got.Msg.Bytes(), want.Msg.Bytes())
			}
			got.Msg.Release() // the transport's release must not reach the ring's copy
		}
	}
}
