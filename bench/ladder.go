package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"morpheus"
	"morpheus/internal/appia"
	"morpheus/internal/core"
	"morpheus/internal/group"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
	"morpheus/internal/stack"
	"morpheus/internal/transport"
)

// The stack ladder uses the paper's own composition idiom as the
// attribution tool: the same three-endpoint loopnet flood runs over stacks
// that each add one layer, and a layer's cost is the difference between its
// rung and the one below.
//
//	R1  transport.ptp + group.fanout                 transport.*
//	R2  R1 + group.nak                               group.nak.*  = R2−R1
//	R3  R2 + group.gms                               group.gms.*  = R3−R2
//	R4  the same stack deployed by a stack.Manager   stack.*      = R4−R3 (Manager + flowctl)
//	R5  the facade, morpheus.Start                   core.*       = R5−R4 (control plane + pool + facade)
//	R6  the flood_loop harness on R5's system        ladder.residual_share = (R6−R5)/R6
//
// Rows sum to R5 by construction. R1–R3 have no flow control, so the bench
// keeps at most sendWin casts outstanding itself, in credits of creditEvery.
const (
	ladderCasts = 100_000
	ladderWarm  = 20_000
	creditEvery = 64 // deliveries per returned credit, the standard stack's stable-every
)

// rungSink is one receiving member of a rung: it checks order, counts, and
// returns a credit every creditEvery deliveries when the rung needs it.
type rungSink struct {
	n       atomic.Int64
	next    uint64
	bad     atomic.Int64
	credits chan struct{} // nil on rungs with flowctl
}

func (s *rungSink) deliver(p []byte) {
	if len(p) != small || binary.LittleEndian.Uint64(p) != s.next {
		s.bad.Add(1)
		return
	}
	s.next++
	if n := s.n.Add(1); s.credits != nil && n%creditEvery == 0 {
		s.credits <- struct{}{}
	}
}

// rung is a deployed three-member stack: how to cast on member 1, and how
// to tear everything down.
type rung struct {
	send  func(payload []byte) error
	close func()
}

// measure floods ladderCasts through r and returns ns and allocations per
// cast, or an error when a delivery was wrong or missing.
func (r rung) measure(sinks []*rungSink) (ns, allocs float64, err error) {
	defer r.close()
	payload := make([]byte, small)
	flood := func(from, to int) error {
		for i := from; i < to; i++ {
			if i%creditEvery == 0 {
				for _, s := range sinks {
					if s.credits != nil {
						<-s.credits
					}
				}
			}
			binary.LittleEndian.PutUint64(payload, uint64(i))
			if err := r.send(payload); err != nil {
				return err
			}
		}
		deadline := wall.now() + int64(drainMax)
		for _, s := range sinks {
			for s.n.Load() < int64(to) {
				if wall.now() > deadline {
					return fmt.Errorf("%d of %d casts delivered", s.n.Load(), to)
				}
				wall.clk.Sleep(50 * time.Microsecond)
			}
		}
		return nil
	}
	warm, casts := ladderWarm/scaleDown, ladderCasts/scaleDown
	if err := flood(0, warm); err != nil {
		return 0, 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := wall.now()
	if err := flood(warm, warm+casts); err != nil {
		return 0, 0, err
	}
	ns = float64(wall.now()-t0) / float64(casts)
	runtime.ReadMemStats(&m1)
	for _, s := range sinks {
		if s.bad.Load() != 0 {
			return 0, 0, fmt.Errorf("%d corrupt or out-of-order deliveries", s.bad.Load())
		}
	}
	return ns, float64(m1.Mallocs-m0.Mallocs) / float64(casts), nil
}

var ladderMembers = []appia.NodeID{1, 2, 3}

func newSinks(credits bool) []*rungSink {
	sinks := []*rungSink{{}, {}}
	for _, s := range sinks {
		if credits {
			s.credits = make(chan struct{}, sendWin/creditEvery)
			for i := 0; i < sendWin/creditEvery; i++ {
				s.credits <- struct{}{}
			}
		}
	}
	return sinks
}

func attach(nw *loopnet.Network) ([]netio.Endpoint, error) {
	eps := make([]netio.Endpoint, len(ladderMembers))
	for i, id := range ladderMembers {
		ep, err := nw.Attach(netio.EndpointConfig{ID: id, Kind: netio.Fixed, Segments: []string{"lan"}})
		if err != nil {
			return nil, err
		}
		eps[i] = ep
	}
	return eps, nil
}

// layeredRung builds R1–R3: one channel per member, composed directly from
// the public layer constructors, each on its own scheduler.
func layeredRung(depth int, sinks []*rungSink) (rung, error) {
	stack.RegisterAllWireEvents(nil)
	nw := loopnet.New()
	eps, err := attach(nw)
	if err != nil {
		return rung{}, err
	}
	var chans []*appia.Channel
	var scheds []*appia.Scheduler
	closeAll := func() {
		for _, ch := range chans {
			_ = ch.Close()
		}
		for _, s := range scheds {
			s.Close()
		}
		_ = nw.Close()
	}
	for i, id := range ladderMembers {
		layers := []appia.Layer{
			transport.NewPTPLayer(transport.Config{Node: eps[i], Port: "ladder"}),
			group.NewFanoutLayer(group.FanoutConfig{Self: id, InitialMembers: ladderMembers}),
		}
		if depth >= 2 {
			layers = append(layers, group.NewNakLayer(group.NakConfig{
				Self: id, InitialMembers: ladderMembers,
				StableEvery: creditEvery, MaxRetained: stack.RetainedCap(sendWin),
			}))
		}
		if depth >= 3 {
			layers = append(layers, group.NewGMSLayer(group.GMSConfig{Self: id, InitialMembers: ladderMembers}))
		}
		qos, err := appia.NewQoS("ladder", layers...)
		if err != nil {
			closeAll()
			return rung{}, err
		}
		var deliver appia.DeliverFunc
		if i > 0 {
			sink := sinks[i-1]
			deliver = func(ev appia.Event) {
				if ce, ok := ev.(*group.CastEvent); ok {
					sink.deliver(ce.Msg.Bytes())
				}
			}
		}
		sched := appia.NewScheduler()
		sched.Start()
		scheds = append(scheds, sched)
		ch := qos.CreateChannel("data", sched, appia.WithDeliver(deliver))
		chans = append(chans, ch)
		if err := ch.Start(); err != nil || !ch.WaitReady(time.Second) {
			closeAll()
			return rung{}, fmt.Errorf("member %d channel not ready: %v", id, err)
		}
	}
	send := func(p []byte) error {
		ev := &group.CastEvent{}
		ev.Msg = appia.NewMessage(p)
		return chans[0].Insert(ev, appia.Down)
	}
	return rung{send: send, close: closeAll}, nil
}

// managerRung builds R4: the plain configuration deployed by a bare
// stack.Manager per member (send window, XML build, no control plane).
func managerRung(sinks []*rungSink) (rung, error) {
	nw := loopnet.New()
	eps, err := attach(nw)
	if err != nil {
		return rung{}, err
	}
	var mgrs []*stack.Manager
	var scheds []*appia.Scheduler
	closeAll := func() {
		for _, m := range mgrs {
			_ = m.Close()
		}
		for _, s := range scheds {
			s.Close()
		}
		_ = nw.Close()
	}
	for i, id := range ladderMembers {
		sched := appia.NewScheduler()
		sched.Start()
		scheds = append(scheds, sched)
		cfg := stack.ManagerConfig{Node: eps[i], Self: id, Scheduler: sched}
		if i > 0 {
			sink := sinks[i-1]
			cfg.OnDeliver = func(ev *group.CastEvent) { sink.deliver(ev.Msg.Bytes()) }
		}
		m := stack.NewManager(cfg)
		mgrs = append(mgrs, m)
		if err := m.Deploy(core.PlainConfig(), core.PlainConfigName, 1, ladderMembers); err != nil {
			closeAll()
			return rung{}, err
		}
	}
	return rung{send: mgrs[0].Send, close: closeAll}, nil
}

// facadeRung builds R5: three morpheus.Start nodes, nothing but the sinks
// attached.
func facadeRung(sinks []*rungSink) (rung, error) {
	nw := loopnet.New()
	eps, err := attach(nw)
	if err != nil {
		return rung{}, err
	}
	var nodes []*morpheus.Node
	closeAll := func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
		_ = nw.Close()
	}
	for i := range ladderMembers {
		cfg := morpheus.Config{Endpoint: eps[i], Members: ladderMembers, SuspectAfter: suspect}
		if i > 0 {
			sink := sinks[i-1]
			cfg.OnMessage = func(_ morpheus.NodeID, p []byte) { sink.deliver(p) }
		}
		nd, err := morpheus.Start(cfg)
		if err != nil {
			closeAll()
			return rung{}, err
		}
		nodes = append(nodes, nd)
	}
	return rung{send: nodes[0].Send, close: closeAll}, nil
}

// ladder measures every rung and adds the per-layer rows to m. A rung that
// fails leaves its rows (and those above it) at 0 and says why on stderr.
func ladder(m map[string]float64) {
	type build func([]*rungSink) (rung, error)
	rungs := []struct {
		layer   string
		credits bool
		build   build
	}{
		{"transport", true, func(s []*rungSink) (rung, error) { return layeredRung(1, s) }},
		{"group.nak", true, func(s []*rungSink) (rung, error) { return layeredRung(2, s) }},
		{"group.gms", true, func(s []*rungSink) (rung, error) { return layeredRung(3, s) }},
		{"stack", false, managerRung},
		{"core", false, facadeRung},
	}
	var ns, allocs float64
	for i, r := range rungs {
		sinks := newSinks(r.credits)
		built, err := r.build(sinks)
		var rns, rallocs float64
		if err == nil {
			rns, rallocs, err = built.measure(sinks)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: ladder rung R%d (%s): %v\n", i+1, r.layer, err)
			return
		}
		m[r.layer+".ns_per_cast"] = rns - ns
		m[r.layer+".allocs_per_cast"] = rallocs - allocs
		ns, allocs = rns, rallocs
	}
	m["ladder.r5_ns_per_cast"], m["ladder.r5_allocs_per_cast"] = ns, allocs

	// R6: the same system under the workload harness (stamps, samples,
	// oracle), so the residual is what the ladder's light sinks leave out.
	c, err := newCluster(spec{net: subLoop, members: 3, groups: 1, size: small, casts: 2 * ladderCasts}, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: ladder rung R6: %v\n", err)
		return
	}
	defer c.close()
	c.run(phase{casts: ladderWarm / scaleDown})
	p := c.run(phase{casts: ladderCasts / scaleDown})
	if len(p.violations) > 0 || p.sent == 0 {
		fmt.Fprintf(os.Stderr, "bench: ladder rung R6: %v\n", p.violations)
		return
	}
	r6 := float64(p.wallNs) / float64(p.sent)
	m["ladder.residual_share"] = (r6 - ns) / r6
}
