package main

import (
	"fmt"
	"slices"
	"time"
)

// workload is one named set of inputs. Each is closed-loop (the application
// API is a blocking, window-controlled Send, so callers wait): a flood
// sends the next cast as soon as Send returns, a ping keeps one cast
// outstanding.
type workload struct {
	name   string
	why    string
	spec   spec
	ping   bool
	setups int // bring-ups per run; setup_s is their median
}

const (
	small = 128     // the smallest cast the suite sends: per-cast cost dominates
	bulk  = 8 << 10 // exceeds udpnet's WireMTU: one v1 datagram per frame
)

var workloads = []workload{
	{name: "flood_loop", setups: 101, spec: spec{net: subLoop, members: 3, groups: 1, size: small},
		why: "loopnet flood of 128-B casts: no sockets or timers on the path, so stack CPU is the whole cost"},
	{name: "flood_udp", setups: 101, spec: spec{net: subUDP, members: 3, groups: 1, size: small},
		why: "the same flood over udpnet loopback sockets: adds the coalescer and vectored syscalls; batches seal on size"},
	{name: "ping_udp", setups: 101, ping: true, spec: spec{net: subUDP, members: 3, groups: 1, size: small},
		why: "one outstanding 128-B cast over udpnet: unloaded latency, the coalescer's delay flush is on the critical path"},
	{name: "bulk_udp", setups: 101, spec: spec{net: subUDP, members: 3, groups: 1, size: bulk},
		why: "udpnet flood of 8-KiB casts: every frame takes the oversize bypass, so batching cannot help"},
	{name: "manygroups_loop", setups: 15, spec: spec{net: subLoop, members: 3, groups: 256, size: small},
		why: "loopnet, 256 groups per node, casts round-robin over them: scheduler-pool dispatch and per-group state dominate"},
	{name: "reconfig_loop", setups: 101, spec: spec{net: subLoop, members: 3, groups: 1, size: small, flip: true},
		why: "loopnet flood while a policy flips plain<->mecho every second: what the paper's reconfiguration costs the application"},
	{name: "lossy_vnet", setups: 101, spec: spec{net: subVirt, members: 5, groups: 1, size: small},
		why: "virtual-clock vnet, 5 members, 2 ms +-1 ms, 5 % loss: NAK detection, retransmission and stability instead of the fast path"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	warmup     = time.Second
	flipIdle   = 100 * time.Millisecond // reconfig_loop phase A: idle group
	flipLoaded = time.Second            // reconfig_loop phase B: under flood
)

// runOut is everything one run of one workload measured.
type runOut struct {
	w        workload
	traced   bool
	setups   []float64 // seconds, one per bring-up
	ref      phaseOut  // traced runs: the untraced reference window
	win      phaseOut  // the measured window
	lat      []uint32  // win's pooled delivery latencies, ascending, ns
	p50, p99 float64   // win's delivery latency, ns (chunkedQuantiles)
	refP50   float64   // the reference window's
	spans    spans
	idleTook []float64 // reconfig_loop phase A: ms per reconfiguration
	loadTook []float64 // reconfig_loop phase B
	probes   map[string]float64
	failed   int
	attempts int
	notes    []string // violations, in the order found
}

// runWorkload brings the system up, warms it, measures one window and
// checks every output. seconds is the measured time: the window itself,
// split with the idle-flip phase on reconfig_loop and with the untraced
// reference window on traced runs. casts, when positive, replaces the wall
// deadline by a fixed cast count (exact repeats on lossy_vnet).
func runWorkload(w workload, seed int64, seconds, casts int, traced bool) (*runOut, error) {
	out := &runOut{w: w, traced: traced}
	w.spec.seed = seed
	w.spec.casts = rateCap * (seconds + 2)
	total := time.Duration(seconds) * time.Second

	var tr *tracer
	if traced {
		tr = newTracer(w.spec.size, w.spec.members, rateCap*seconds)
	}
	var c *cluster
	for i := 0; i < w.setups; i++ {
		if c != nil {
			c.close()
		}
		s := w.spec
		if i < w.setups-1 {
			// A bring-up that will carry no traffic gets token-size recorders:
			// allocating the oracle's bitmaps each time would have the garbage
			// collector running through the next bring-up's timed part.
			s.casts = 0
		}
		var err error
		if c, err = newCluster(s, tr); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		out.setups = append(out.setups, c.setupD.Seconds())
	}
	defer c.close()
	for _, r := range c.recv[1:] {
		r.samples = make([]uint32, rateCap*seconds)
	}
	note := func(stage string, p phaseOut) {
		out.failed += p.failed
		for _, v := range p.violations {
			out.notes = append(out.notes, stage+": "+v)
		}
	}

	// Readiness is an event, not a sleep: the views are full (newCluster)
	// and a warm-up flood has reached every member and drained.
	wu := phase{dur: warmup, ping: w.ping}
	if casts > 0 {
		wu = phase{casts: sendWin, ping: w.ping}
	}
	note("warm-up", c.run(wu))

	win := phase{dur: total, casts: casts, ping: w.ping, record: true}
	if w.spec.flip {
		a := total / 3
		win.dur -= a
		win.flip = flipLoaded
		c.idleFlips(a, out)
	}
	if traced {
		ref := win
		ref.dur, ref.casts = win.dur/4, casts/4
		win.dur -= ref.dur
		out.ref = c.run(ref)
		note("reference window", out.ref)
		out.refP50, _ = chunkedQuantiles(c.columns())
		win.trace = true
	}
	mark := len(c.tookMs(0))
	out.win = c.run(win)
	note("window", out.win)
	out.attempts = out.win.sent + out.ref.sent
	cols := c.columns()
	if traced {
		out.spans = tr.spans()
		for _, s := range [][]uint32{out.spans.down, out.spans.wire, out.spans.up, out.win.sendNs} {
			slices.Sort(s)
		}
		cols = cols[:0]
		for m := 1; m < c.members; m++ {
			cols = append(cols, tr.column(m))
		}
	}
	out.p50, out.p99 = chunkedQuantiles(cols)
	out.lat = slices.Concat(cols...)
	slices.Sort(out.lat)
	out.loadTook = c.tookMs(mark)
	return out, nil
}

// columns returns each remote member's latency samples of the last
// untraced phase, in delivery order.
func (c *cluster) columns() [][]uint32 {
	var cols [][]uint32
	for _, r := range c.recv[1:] {
		cols = append(cols, r.samples[:min(int(r.n.Load()), len(r.samples))])
	}
	return cols
}

// idleFlips is reconfig_loop's phase A: the group carries no traffic while
// the configuration flips every flipIdle, which prices the §3.3 procedure
// itself (timer- and round-trip-bound).
func (c *cluster) idleFlips(dur time.Duration, out *runOut) {
	stop := make(chan struct{})
	done := make(chan struct{})
	c.tb.clk.Go(func() { defer close(done); c.flipper(flipIdle, stop) })
	c.tb.clk.Sleep(dur)
	close(stop)
	c.tb.clk.Wait(done)
	if !c.reconfigured() {
		out.notes = append(out.notes, "idle flips: the last reconfiguration never settled on every member")
	}
	out.idleTook = c.tookMs(0)
}

// tookMs returns the coordinator's reconfiguration durations from the
// from-th on, in ms.
func (c *cluster) tookMs(from int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ms []float64
	for _, d := range c.took[from:] {
		ms = append(ms, float64(d)/1e6)
	}
	return ms
}
