package group

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"morpheus/internal/appia"
)

// The fuzz input is a script of wire inputs for one reliable-layer session:
// a kind byte (mod nakOpKinds) followed by that kind's uvarint operands.
const (
	nakOpCast   = iota // origin, seq: a cast arriving from the network
	nakOpNack          // requester, origin, from, to
	nakOpStable        // gossiper, pair count, then (origin, delivered) pairs
	nakOpOwn           // a windowed cast from the session's own application
	nakOpTimer         // origin: the NACK timer for that origin fires
	nakOpTick          // the stability keepalive fires
	nakOpKinds
)

func appendNakOp(script []byte, kind byte, operands ...uint64) []byte {
	script = append(script, kind)
	for _, v := range operands {
		script = binary.AppendUvarint(script, v)
	}
	return script
}

// recordNakTraffic runs a three-member group over a lossy segment and
// returns, as a fuzz script, everything node 1's reliable layer saw: casts,
// retransmission requests and stability gossip off the wire, interleaved
// with its own casts.
func recordNakTraffic(t testing.TB) []byte {
	var (
		mu     sync.Mutex
		script []byte
	)
	spec := &appia.BaseLayer{LayerName: "recorder", LayerSpec: appia.LayerSpec{
		Accepts: []appia.EventType{appia.TIface[appia.Sendable]()},
	}}
	record := func(ch *appia.Channel, ev appia.Event) {
		defer ch.Forward(ev)
		s, ok := ev.(appia.Sendable)
		if !ok || s.SendableBase().Msg == nil {
			return
		}
		sb := s.SendableBase()
		m := sb.Msg.Clone()
		pop := func() uint64 { v, _ := m.PopUvarint(); return v }
		mu.Lock()
		defer mu.Unlock()
		switch e := ev.(type) {
		case Caster:
			if sb.Dir() == appia.Up {
				script = appendNakOp(script, nakOpCast, pop(), pop())
			} else if e.CastBase().Dest == appia.NoNode {
				script = appendNakOp(script, nakOpOwn)
			}
		case *Nack:
			if sb.Dir() == appia.Up {
				script = appendNakOp(script, nakOpNack, uint64(sb.Source), pop(), pop(), pop())
			}
		case *Stable:
			if sb.Dir() == appia.Up {
				gossiper := pop()
				if vec, err := popVector(m); err == nil {
					ops := []uint64{gossiper, uint64(len(vec))}
					for _, o := range vec.SortedOrigins() {
						ops = append(ops, uint64(o), vec[o])
					}
					script = appendNakOp(script, nakOpStable, ops...)
				}
			}
		}
	}
	nodes := buildCluster(t, 3, stackOpts{loss: 0.25, seed: 7, tap: tapLayer{spec, record}})
	const k = 12
	for i := 0; i < k; i++ {
		nodes[i%2].cast(t, fmt.Sprintf("seed%02d", i))
	}
	for _, tn := range nodes {
		tn := tn
		eventually(t, 10*time.Second, "seed run delivers everything", func() bool {
			return len(tn.deliveredList()) == k
		})
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]byte(nil), script...)
}

// FuzzNakWire feeds a session arbitrary origin/seq headers, NACK ranges and
// stability vectors. Whatever arrives, no Handle call may panic or fail to
// return, no ring may outgrow what MaxRetained allows it, the live totals
// must match the rings, and every credit taken must come back by teardown.
func FuzzNakWire(f *testing.F) {
	f.Add(recordNakTraffic(f))
	f.Add(appendNakOp(appendNakOp(nil, nakOpOwn), nakOpNack, 2, 1, 1, 1<<62))
	f.Add(appendNakOp(appendNakOp(nil, nakOpCast, 2, 1<<63), nakOpTimer, 2))
	f.Add(appendNakOp(nil, nakOpStable, 3, 2, 1, ^uint64(0), 2, 1<<40))

	const maxRetained = 8
	f.Fuzz(func(t *testing.T, script []byte) {
		r := newNakRig(t, NakConfig{Self: 1, InitialMembers: []appia.NodeID{1, 2, 3}, MaxRetained: maxRetained})
		next := func() uint64 {
			v, n := binary.Uvarint(script)
			if n <= 0 {
				script = nil
				return 0
			}
			script = script[n:]
			return v
		}
		node := func() appia.NodeID { return appia.NodeID(uint32(next())) }
		own := 0
		for steps := 0; len(script) > 0 && steps < 512; steps++ {
			kind := script[0] % nakOpKinds
			script = script[1:]
			var err error
			switch kind {
			case nakOpCast:
				err = r.ch.Insert(wireCast(node(), next()), appia.Up)
			case nakOpNack:
				err = r.ch.Insert(wireNack(node(), node(), next(), next()), appia.Up)
			case nakOpStable:
				gossiper, vec := node(), DeliveredVector{}
				for n := next() % 8; n > 0; n-- {
					vec[node()] = next()
				}
				err = r.ch.Insert(wireStable(gossiper, vec), appia.Up)
			case nakOpOwn:
				own++
				err = r.ch.Insert(ownCast(true, 3), appia.Down)
			case nakOpTimer:
				ev := &nackTimeout{origin: node()}
				err = r.sched.Do(func() { r.sess.Handle(r.ch, ev) })
			case nakOpTick:
				err = r.sched.Do(func() { r.sess.Handle(r.ch, &stableTick{}) })
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		r.settle()

		s := r.sess
		buffered, history := 0, 0
		for origin, st := range s.recv {
			buffered += st.reorder.live
			history += st.history.live
			if n := len(st.reorder.slots); n > maxRetained {
				t.Fatalf("origin %d: reorder ring has %d slots under a span of %d", origin, n, maxRetained)
			}
			if n := len(st.history.slots); n > 2*maxRetained {
				t.Fatalf("origin %d: history ring has %d slots under a cap of %d", origin, n, maxRetained)
			}
			if st.history.live > maxRetained {
				t.Fatalf("origin %d: %d history payloads over a cap of %d", origin, st.history.live, maxRetained)
			}
		}
		if buffered != s.cntBuffer || history != s.cntHistory {
			t.Fatalf("live totals %d buffered / %d history, rings hold %d / %d", s.cntBuffer, s.cntHistory, buffered, history)
		}
		if s.cntSent > maxRetained || s.cntSent > s.sent.live {
			t.Fatalf("%d sent payloads: cap %d, %d slots occupied", s.cntSent, maxRetained, s.sent.live)
		}
		if r.win.Msgs > own || r.win.Bytes > 3*own {
			t.Fatalf("released %d credits / %d bytes for %d windowed casts", r.win.Msgs, r.win.Bytes, own)
		}

		if err := r.ch.CloseAsync(); err != nil {
			t.Fatal(err)
		}
		r.settle()
		if r.win.Msgs != own || r.win.Bytes != 3*own {
			t.Fatalf("teardown left %d of %d credits and %d of %d bytes held", own-r.win.Msgs, own, 3*own-r.win.Bytes, 3*own)
		}
	})
}
