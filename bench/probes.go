package main

import (
	"sync/atomic"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/clock"
	"morpheus/internal/flowctl"
	"morpheus/internal/group"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
	"morpheus/internal/netio/udpnet"
	"morpheus/internal/stack"
	"morpheus/internal/transport"
	"morpheus/internal/vnet"
)

// Layer probes time one layer's public functions alone, on the input shapes
// the workloads use, at fixed iteration counts. They attribute: a probe
// that does not move while an end-to-end metric does clears its layer.

// scaleDown divides every probe's and ladder rung's iteration count; the
// self-test raises it so that it covers the whole suite in seconds.
var scaleDown = 1

// timeOp runs fn(n) three times and returns the median ns per operation.
func timeOp(n int, fn func(n int)) float64 {
	n = max(n/scaleDown, 1)
	var ns []float64
	for rep := 0; rep < 3; rep++ {
		t0 := wall.now()
		fn(n)
		ns = append(ns, float64(wall.now()-t0)/float64(n))
	}
	return median(ns)
}

// spinUntil waits for a counter another goroutine advances; the probes that
// use it keep the waiting side off the measured path's cores only as long
// as a yield takes.
func spinUntil(c *atomic.Int64, want int64) {
	for c.Load() < want {
		wall.clk.Sleep(20 * time.Microsecond)
	}
}

func runProbes() map[string]float64 {
	m := make(map[string]float64)
	m["appia.msg_ns"] = probeMessage(small)
	m["appia.msg_bulk_ns"] = probeMessage(bulk)
	m["appia.hop_ns"] = probeHop()
	m["appia.pool_dispatch_ns_g1"] = probePool(1)
	m["appia.pool_dispatch_ns_g256"] = probePool(256)
	m["flowctl.acquire_release_ns"] = probeWindow()
	m["transport.marshal_ns"], m["transport.unmarshal_ns"] = probeTransport()
	m["loopnet.send_ns"] = probeLoopnet()
	probeUdpnet(m)
	m["vnet.deliver_ns"] = probeVnet()
	m["clock.virtual_timer_ns"] = probeVirtualTimer()
	m["harness.ns_per_delivery"] = probeHarness()
	return m
}

// probeMessage is one cast's worth of message work: build from a payload,
// four header push/pops (the depth of the plain stack), two clones (the
// fan-out to two peers), release.
func probeMessage(size int) float64 {
	payload := make([]byte, size)
	return timeOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			msg := appia.NewMessage(payload)
			for h := 0; h < 4; h++ {
				msg.PushUvarint(uint64(i))
			}
			c1, c2 := msg.Clone(), msg.Clone()
			for h := 0; h < 4; h++ {
				_, _ = msg.PopUvarint()
			}
			c1.Release()
			c2.Release()
			msg.Release()
		}
	})
}

type hopEvent struct{ appia.EventBase }

type passLayer struct{ appia.BaseLayer }

func (*passLayer) NewSession() appia.Session {
	return appia.SessionFunc(func(ch *appia.Channel, ev appia.Event) { ch.Forward(ev) })
}

// probeHop sends events up a channel of four pass-through sessions and
// returns ns per session visited (scheduler dispatch included).
func probeHop() float64 {
	const sessions = 4
	layers := make([]appia.Layer, sessions)
	for i := range layers {
		layers[i] = &passLayer{appia.BaseLayer{
			LayerName: "pass" + string(rune('0'+i)),
			LayerSpec: appia.LayerSpec{Accepts: []appia.EventType{appia.T[*hopEvent]()}},
		}}
	}
	qos, err := appia.NewQoS("probe", layers...)
	if err != nil {
		return 0
	}
	sched := appia.NewScheduler()
	sched.Start()
	defer sched.Close()
	var got atomic.Int64
	ch := qos.CreateChannel("probe", sched, appia.WithDeliver(func(appia.Event) { got.Add(1) }))
	if ch.Start() != nil || !ch.WaitReady(time.Second) {
		return 0
	}
	defer ch.Close()
	var sent int64
	return timeOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			_ = ch.Insert(&hopEvent{}, appia.Up)
		}
		sent += int64(n)
		spinUntil(&got, sent)
	}) / sessions
}

// probePool posts no-op tasks round-robin over g pooled schedulers: the
// per-dispatch cost of hosting g groups on one node.
func probePool(g int) float64 {
	pool := appia.NewPool(0, nil)
	defer pool.Close()
	scheds := make([]*appia.Scheduler, g)
	for i := range scheds {
		scheds[i] = pool.NewScheduler()
		scheds[i].Start()
	}
	defer func() {
		for _, s := range scheds {
			s.Close()
		}
	}()
	var done atomic.Int64
	fn := func() { done.Add(1) }
	var posted int64
	return timeOp(300_000, func(n int) {
		for i := 0; i < n; i++ {
			_ = scheds[i%g].Do(fn)
		}
		posted += int64(n)
		spinUntil(&done, posted)
	})
}

func probeWindow() float64 {
	w := flowctl.New(sendWin, nil)
	return timeOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			_ = w.Acquire()
			w.Release(1)
		}
	})
}

// probeTransport marshals and unmarshals a 128-B CastEvent as transport.ptp
// does per frame.
func probeTransport() (marshal, unmarshal float64) {
	stack.RegisterAllWireEvents(nil)
	reg := appia.DefaultRegistry()
	ev := &group.CastEvent{}
	ev.Msg = appia.NewMessage(make([]byte, small))
	var scratch, wire []byte
	marshal = timeOp(500_000, func(n int) {
		for i := 0; i < n; i++ {
			wire, _ = transport.MarshalAppend(scratch[:0], reg, "data", ev)
			scratch = wire
		}
	})
	unmarshal = timeOp(500_000, func(n int) {
		for i := 0; i < n; i++ {
			if _, got, err := transport.Unmarshal(reg, wire); err == nil {
				got.SendableBase().Msg.Release()
			}
		}
	})
	return marshal, unmarshal
}

// pair attaches members 1 and 2 to nw and counts frames arriving at 2.
func pair(nw netio.Network) (a, b netio.Endpoint, got *atomic.Int64) {
	a, _ = nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed, Segments: []string{"lan"}})
	b, _ = nw.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed, Segments: []string{"lan"}})
	got = new(atomic.Int64)
	b.Handle("p", func(netio.NodeID, string, []byte) { got.Add(1) })
	return a, b, got
}

func probeLoopnet() float64 {
	nw := loopnet.New()
	defer nw.Close()
	a, _, _ := pair(nw)
	payload := make([]byte, small)
	return timeOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			_ = a.Send(2, "p", "data", payload)
		}
	})
}

// probeUdpnet times the wire plane alone on loopback sockets: streamed
// sends (amortised over the final Flush) at both payload sizes, a flushed
// round trip, and the unflushed one-way time — the coalescer's delay bound
// as a lone cast experiences it.
func probeUdpnet(m map[string]float64) {
	nw, err := udpnet.New(udpnet.Config{Peers: map[netio.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}})
	if err != nil {
		return
	}
	defer nw.Close()
	a, b, _ := pair(nw)
	flush := func(ep netio.Endpoint) { ep.(*udpnet.Endpoint).Flush() }
	stream := func(size, n int) float64 {
		payload := make([]byte, size)
		return timeOp(n, func(n int) {
			for i := 0; i < n; i++ {
				_ = a.Send(2, "p", "data", payload)
			}
			flush(a)
		})
	}
	m["udpnet.send_ns"] = stream(small, 200_000)
	m["udpnet.bulk_send_ns"] = stream(bulk, 20_000)

	// Let the streams' tail drain so it does not queue ahead of the pings.
	wall.clk.Sleep(50 * time.Millisecond)
	payload := make([]byte, small)
	pong := make(chan struct{}, 1)
	b.Handle("req", func(src netio.NodeID, _ string, p []byte) {
		_ = b.Send(src, "resp", "data", p)
		flush(b)
	})
	a.Handle("resp", func(netio.NodeID, string, []byte) { pong <- struct{}{} })
	m["udpnet.rtt_flushed_us"] = timeOp(2_000, func(n int) {
		for i := 0; i < n; i++ {
			_ = a.Send(2, "req", "data", payload)
			flush(a)
			<-pong
		}
	}) / 1e3

	b.Handle("idle", func(netio.NodeID, string, []byte) { pong <- struct{}{} })
	m["udpnet.idle_flush_us"] = timeOp(200, func(n int) {
		for i := 0; i < n; i++ {
			_ = a.Send(2, "idle", "data", payload)
			<-pong
		}
	}) / 1e3
}

// probeVnet pushes frames through a virtual-clock world with lossy_vnet's
// latency and jitter (no loss) and returns wall ns per frame delivered:
// the testbed's own cost per frame.
func probeVnet() float64 {
	clk := clock.NewVirtual()
	defer clk.Stop()
	w := vnet.NewWorldWithClock(1, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "lan", Latency: 2 * time.Millisecond, Jitter: time.Millisecond})
	a, _, got := pair(w)
	payload := make([]byte, small)
	var sent int64
	return timeOp(200_000, func(n int) {
		for i := 0; i < n; i += sendWin {
			for j := 0; j < sendWin; j++ {
				_ = a.Send(2, "p", "data", payload)
			}
			sent += sendWin
			for got.Load() < sent {
				clk.Sleep(time.Millisecond)
			}
		}
	})
}

// probeVirtualTimer arms and fires AfterFunc timers on a virtual clock.
func probeVirtualTimer() float64 {
	clk := clock.NewVirtual()
	defer clk.Stop()
	var fired atomic.Int64
	fn := func() { fired.Add(1) }
	return timeOp(200_000, func(n int) {
		for i := 0; i < n; i += sendWin {
			for j := 0; j < sendWin; j++ {
				clk.AfterFunc(time.Duration(j+1)*time.Microsecond, fn)
			}
			clk.Sleep(time.Millisecond)
		}
	})
}

// probeHarness is what the bench's own OnMessage body costs per delivery,
// over and above an empty callback.
func probeHarness() float64 {
	n := 1_000_000 / scaleDown
	r := offlineCluster(3 * n).recv[1]
	r.samples = make([]uint32, n)
	buf := make([]byte, small)
	var seq uint64
	full := timeOp(n, func(n int) {
		r.n.Store(0)
		for i := 0; i < n; i++ {
			buf[0], buf[1], buf[2], buf[3] = byte(seq), byte(seq>>8), byte(seq>>16), byte(seq>>24)
			seq++
			r.deliver(0, buf)
		}
	})
	base := timeOp(n, func(n int) {
		for i := 0; i < n; i++ {
			buf[0] = byte(i)
			emptyDeliver(0, buf)
		}
	})
	return full - base
}

// emptyDeliver is a variable so that the call is not inlined away.
var emptyDeliver = func(int, []byte) {}
