package group

import (
	"testing"

	"morpheus/internal/appia"
)

// TestNakRetentionRings walks a bare session through every way a retention
// ring loses entries — the MaxRetained caps, the stability watermark, a view
// install, teardown and a state-transfer frontier jump — and checks what each
// one drops, what it keeps, and where the send-window credits go.
func TestNakRetentionRings(t *testing.T) {
	all := []appia.NodeID{1, 2, 3}
	for _, tc := range []struct {
		name string
		cfg  NakConfig
		run  func(t *testing.T, r *nakRig)
	}{
		{
			name: "sent cap drops the payload, keeps the credit until the watermark",
			cfg:  NakConfig{Self: 1, InitialMembers: all, MaxRetained: 4},
			run: func(t *testing.T, r *nakRig) {
				for i := 0; i < 6; i++ {
					r.own(true, 10)
				}
				r.wantStats(NakStats{SentHighWater: 5, Evicted: 2})
				r.wantCredits(0, 0)
				if got := r.sess.sent.live; got != 6 {
					t.Fatalf("sent ring holds %d slots, want all 6 (two of them credit-only)", got)
				}
				r.takeWire()
				r.insert(wireNack(2, 1, 1, 6), appia.Up)
				wantSeqs(t, "retransmitted after eviction", retransmitted(t, r.takeWire(), 2), 3, 4, 5, 6)

				// Peer 2 is at 6, peer 3 only at 4: the watermark is 4, which
				// covers both evicted casts.
				r.insert(wireStable(2, DeliveredVector{1: 6}), appia.Up)
				r.wantCredits(0, 0) // peer 3 still unknown: nothing is stable
				r.insert(wireStable(3, DeliveredVector{1: 4}), appia.Up)
				r.wantCredits(4, 40)
				r.insert(wireStable(3, DeliveredVector{1: 6}), appia.Up)
				r.wantCredits(6, 60)
				if got := r.sess.sent.live; got != 0 {
					t.Fatalf("sent ring holds %d slots after full stability", got)
				}
				r.wantStats(NakStats{SentHighWater: 5, Evicted: 2})
			},
		},
		{
			name: "reorder span refuses a far-ahead cast and the NACK covers it",
			cfg:  NakConfig{Self: 1, InitialMembers: all, MaxRetained: 4},
			run: func(t *testing.T, r *nakRig) {
				r.recv(2, 1)
				r.recv(2, 3)
				r.recv(2, 4)
				r.recv(2, 5) // next is 2: 5-2 < 4, the last seq the span admits
				r.recv(2, 6) // 6-2 >= 4: refused, but remembered in known
				r.recv(2, 3) // duplicate of a buffered cast: not counted twice
				r.wantStats(NakStats{HistoryHighWater: 1, BufferHighWater: 3, Evicted: 1})
				if n := len(r.sess.recv[2].reorder.slots); n > 8 {
					t.Fatalf("reorder ring grew to %d slots under a span of 4", n)
				}
				r.takeWire()
				r.fire(&nackTimeout{origin: 2})
				if got := nacks(r.takeWire()); len(got) != 1 || got[0] != (nackRange{2, 2, 2}) {
					t.Fatalf("first NACK = %+v, want the gap [2,2] in front of the buffer", got)
				}
				r.recv(2, 2) // closes the gap: 3, 4, 5 drain behind it
				if len(r.app) != 5 {
					t.Fatalf("delivered %d casts, want 5", len(r.app))
				}
				for i, c := range r.app {
					if c.Origin != 2 || c.Seq != uint64(i+1) {
						t.Fatalf("delivery %d is %d/%d: FIFO broken", i, c.Origin, c.Seq)
					}
				}
				r.fire(&nackTimeout{origin: 2})
				if got := nacks(r.takeWire()); len(got) != 1 || got[0] != (nackRange{2, 6, 6}) {
					t.Fatalf("NACK after the drain = %+v, want the refused cast [6,6]", got)
				}
			},
		},
		{
			name: "history cap evicts the oldest delivered cast",
			cfg:  NakConfig{Self: 1, InitialMembers: all, MaxRetained: 4},
			run: func(t *testing.T, r *nakRig) {
				for seq := uint64(1); seq <= 6; seq++ {
					r.recv(2, seq)
				}
				r.wantStats(NakStats{HistoryHighWater: 5, Evicted: 2})
				r.takeWire()
				r.insert(wireNack(3, 2, 1, 6), appia.Up)
				wantSeqs(t, "history served on behalf of origin 2", retransmitted(t, r.takeWire(), 3), 3, 4, 5, 6)
				// The stability watermark retires the rest.
				r.insert(wireStable(2, DeliveredVector{2: 6}), appia.Up)
				r.insert(wireStable(3, DeliveredVector{2: 5}), appia.Up)
				if got := r.sess.recv[2].history.live; got != 1 {
					t.Fatalf("history holds %d casts above the watermark, want 1", got)
				}
			},
		},
		{
			name: "view install releases every credit, keeps every payload",
			cfg:  NakConfig{Self: 1, InitialMembers: all},
			run: func(t *testing.T, r *nakRig) {
				r.own(true, 7)
				r.own(false, 0) // a control cast: no credit to release
				r.own(true, 7)
				r.insert(&ViewInstall{View: View{ID: 2, Members: all}}, appia.Down)
				r.wantCredits(2, 14)
				r.takeWire()
				r.insert(wireNack(3, 1, 1, 3), appia.Up)
				wantSeqs(t, "retransmitted after the view", retransmitted(t, r.takeWire(), 3), 1, 2, 3)
				r.insert(wireStable(2, DeliveredVector{1: 3}), appia.Up)
				r.insert(wireStable(3, DeliveredVector{1: 3}), appia.Up)
				r.wantCredits(2, 14) // nothing is released twice
				if got := r.sess.sent.live; got != 0 {
					t.Fatalf("sent ring holds %d slots after full stability", got)
				}
			},
		},
		{
			name: "teardown releases what is still held",
			cfg:  NakConfig{Self: 1, InitialMembers: all, MaxRetained: 2},
			run: func(t *testing.T, r *nakRig) {
				for i := 0; i < 5; i++ {
					r.own(true, 3)
				}
				r.insert(wireStable(2, DeliveredVector{1: 1}), appia.Up)
				r.insert(wireStable(3, DeliveredVector{1: 1}), appia.Up)
				r.wantCredits(1, 3)
				if err := r.ch.CloseAsync(); err != nil {
					t.Fatal(err)
				}
				r.settle()
				r.wantCredits(5, 15)
			},
		},
		{
			name: "state-transfer frontier jump splits the reorder buffer",
			cfg:  NakConfig{Self: 1, InitialMembers: []appia.NodeID{1}},
			run: func(t *testing.T, r *nakRig) {
				r.own(true, 1) // cast 1 of an incarnation the group already saw 20 casts of
				r.recv(2, 1)   // delivered: one history entry below the frontier
				for _, seq := range []uint64{5, 7, 9, 12} {
					r.recv(2, seq)
				}
				r.wantStats(NakStats{SentHighWater: 1, HistoryHighWater: 1, BufferHighWater: 4})
				r.takeWire()

				st := &StateTransfer{}
				m := st.EnsureMsg()
				DeliveredVector{1: 20, 2: 7}.push(m)
				pushView(m, View{ID: 3, Members: all})
				r.insert(st, appia.Up)

				o := r.sess.recv[2]
				if o.next != 8 || o.reorder.live != 2 || o.history.live != 0 {
					t.Fatalf("after the jump: next %d, %d buffered, %d in history; want 8, 2 (9 and 12), 0",
						o.next, o.reorder.live, o.history.live)
				}
				if r.sess.cntBuffer != 2 || r.sess.cntHistory != 0 {
					t.Fatalf("live totals %d buffered / %d history, want 2 / 0", r.sess.cntBuffer, r.sess.cntHistory)
				}
				r.wantCredits(1, 1) // own cast 1 is below our own frontier: stable
				r.fire(&nackTimeout{origin: 2})
				if got := nacks(r.takeWire()); len(got) != 1 || got[0] != (nackRange{2, 8, 8}) {
					t.Fatalf("NACK after the jump = %+v, want [8,8]", got)
				}
				delivered := len(r.app)
				r.recv(2, 8) // drains 9; 12 still waits behind 10 and 11
				if len(r.app) != delivered+2 || o.next != 10 || o.reorder.live != 1 {
					t.Fatalf("after 8: %d new deliveries, next %d, %d buffered", len(r.app)-delivered, o.next, o.reorder.live)
				}
				// Own sequence numbers continue above what the group saw.
				r.own(false, 0)
				if last := r.app[len(r.app)-1]; last.Origin != 1 || last.Seq != 21 {
					t.Fatalf("own cast after rejoin is %d/%d, want 1/21", last.Origin, last.Seq)
				}
				if n := len(r.sess.sent.slots); n > 8 {
					t.Fatalf("sent ring spans the jump: %d slots", n)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newNakRig(t, tc.cfg))
		})
	}
}

// lastOwner reports whether m is the only message left on its buffer: only
// then does a push land in place instead of copying out. A true answer leaves
// m as it was; a false one has moved m to a buffer of its own, so take a
// fresh probe for the next question.
func lastOwner(m *appia.Message) bool {
	tail := func() *byte { b := m.Bytes(); return &b[len(b)-1] }
	before := tail()
	m.PushBool(true)
	inPlace := before == tail()
	_, _ = m.PopBool()
	return inPlace
}

// probes returns n clones sharing r's retained buffer, each good for one
// lastOwner question.
func probes(r appia.Retained, n int) []*appia.Message {
	out := make([]*appia.Message, n)
	for i := range out {
		out[i] = r.Event().SendableBase().Msg
	}
	return out
}

// releaseTraffic plays the transport: every frame the rig recorded leaving is
// released (the channel already released the casts it delivered).
func (r *nakRig) releaseTraffic() {
	for _, ev := range r.takeWire() {
		if s, ok := ev.(appia.Sendable); ok {
			appia.ReleaseEvent(s)
		}
	}
	r.app = nil
}

// TestRingAdvanceFreesTheBuffer: slot advance is where a retained cast's
// buffer is freed — the stability watermark on the sent ring and on a
// history ring each leave the probe as the buffer's last owner — while
// releaseSent (a view install) returns the credit and keeps the payload. A
// second release of the same capture would panic under the race build, which
// is what makes "once" part of `make race`.
func TestRingAdvanceFreesTheBuffer(t *testing.T) {
	all := []appia.NodeID{1, 2, 3}
	r := newNakRig(t, NakConfig{Self: 1, InitialMembers: all})
	r.own(true, 5)
	r.recv(2, 1)
	sent := probes(r.sess.sent.get(1).Retained, 3)
	hist := probes(r.sess.recv[2].history.get(1), 2)
	r.releaseTraffic()
	if lastOwner(sent[0]) || lastOwner(hist[0]) {
		t.Fatal("a ring slot does not hold its own reference")
	}

	r.insert(&ViewInstall{View: View{ID: 2, Members: all}}, appia.Down)
	r.wantCredits(1, 5)
	if lastOwner(sent[1]) {
		t.Fatal("releaseSent freed the payload along with the credit")
	}

	r.insert(wireStable(2, DeliveredVector{1: 1, 2: 1}), appia.Up)
	r.insert(wireStable(3, DeliveredVector{1: 1, 2: 1}), appia.Up)
	r.releaseTraffic()
	if r.sess.sent.live != 0 || r.sess.recv[2].history.live != 0 {
		t.Fatalf("rings still hold %d sent / %d history", r.sess.sent.live, r.sess.recv[2].history.live)
	}
	if !lastOwner(sent[2]) {
		t.Fatal("advancing the sent ring did not release the retained cast")
	}
	if !lastOwner(hist[1]) {
		t.Fatal("advancing the history ring did not release the retained cast")
	}
}
