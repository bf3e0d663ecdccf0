package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
)

// metric is one named number of the suite. BENCHMARK.json lists the same
// names, units and bounds; bench_test.go holds the two in step.
type metric struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are what a user of the system sees; every workload reports all
// of them, from the untraced run.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"casts_per_s", "1/s", "higher", 0.15},
	{"deliver_p50_us", "us", "lower", 0.25},
	{"deliver_p99_us", "us", "lower", 0.25},
	{"allocs_per_cast", "count", "lower", 0.02},
	{"tx_per_cast", "count", "lower", 0.02},
}

// perLayer come from the traced run: boundary spans, counts read from the
// stack's public snapshots, layer probes, the stack ladder. They carry no
// bound; each names, in README.md, the end-to-end metric it should move.
var perLayer = []metric{
	// Metrics the issue defined as end-to-end that are 0, exact or
	// meaningful on one workload only, and so cannot be gated by spread.
	{"failed_share", "share", "lower", 0},
	{"casts_per_s_mean", "1/s", "higher", 0},
	{"reconfig_p50_ms", "ms", "lower", 0},
	{"stall_max_ms", "ms", "lower", 0},
	{"vcasts_per_s", "1/s", "higher", 0},
	{"vdeliver_p50_ms", "ms", "lower", 0},
	{"vdeliver_p99_ms", "ms", "lower", 0},
	// Boundary spans.
	{"stack.down_p50_us", "us", "lower", 0},
	{"stack.down_p99_us", "us", "lower", 0},
	{"netio.wire_p50_us", "us", "lower", 0},
	{"netio.wire_p99_us", "us", "lower", 0},
	{"stack.up_p50_us", "us", "lower", 0},
	{"stack.up_p99_us", "us", "lower", 0},
	{"trace.span_coverage", "share", "higher", 0},
	{"trace.overhead_share", "share", "lower", 0},
	// Counts from public snapshots.
	{"netio.tx_data_per_cast", "count", "lower", 0},
	{"netio.tx_control_per_cast", "count", "lower", 0},
	{"netio.wire_bytes_per_cast", "B", "lower", 0},
	{"udpnet.datagrams_per_cast", "count", "lower", 0},
	{"udpnet.syscalls_per_cast", "count", "lower", 0},
	{"udpnet.rx_syscalls_per_cast", "count", "lower", 0},
	{"flowctl.send_call_p50_us", "us", "lower", 0},
	{"flowctl.send_call_p99_us", "us", "lower", 0},
	{"flowctl.send_block_share", "share", "lower", 0},
	{"flowctl.window_highwater", "count", "lower", 0},
	{"flowctl.credit_hold_us", "us", "lower", 0},
	{"flowctl.queue_p50_us", "us", "lower", 0},
	{"appia.mailbox_highwater", "count", "lower", 0},
	{"appia.pool_batches_per_cast", "count", "lower", 0},
	{"appia.pool_steals_per_kcast", "count", "lower", 0},
	{"appia.pool_parks_per_kcast", "count", "lower", 0},
	{"group.nak.retained_highwater", "count", "lower", 0},
	{"group.nak.evicted", "count", "lower", 0},
	{"group.nak.retx_per_cast", "count", "lower", 0},
	{"core.reconfigs", "count", "higher", 0},
	{"core.reconfig_loaded_p50_ms", "ms", "lower", 0},
	{"stack.buffered_sends_highwater", "count", "lower", 0},
	{"stack.resubmit_overtaken", "count", "lower", 0},
	{"runtime.cpu_us_per_cast", "us", "lower", 0},
	{"runtime.cpu_share", "share", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.heap_mb", "MB", "lower", 0},
	{"vnet.ns_per_frame", "ns", "lower", 0},
	// Layer probes.
	{"appia.msg_ns", "ns", "lower", 0},
	{"appia.msg_bulk_ns", "ns", "lower", 0},
	{"appia.hop_ns", "ns", "lower", 0},
	{"appia.pool_dispatch_ns_g1", "ns", "lower", 0},
	{"appia.pool_dispatch_ns_g256", "ns", "lower", 0},
	{"flowctl.acquire_release_ns", "ns", "lower", 0},
	{"transport.marshal_ns", "ns", "lower", 0},
	{"transport.unmarshal_ns", "ns", "lower", 0},
	{"loopnet.send_ns", "ns", "lower", 0},
	{"udpnet.send_ns", "ns", "lower", 0},
	{"udpnet.bulk_send_ns", "ns", "lower", 0},
	{"udpnet.rtt_flushed_us", "us", "lower", 0},
	{"udpnet.idle_flush_us", "us", "lower", 0},
	{"vnet.deliver_ns", "ns", "lower", 0},
	{"clock.virtual_timer_ns", "ns", "lower", 0},
	{"harness.ns_per_delivery", "ns", "lower", 0},
	{"harness.gomaxprocs", "count", "higher", 0},
	// Stack ladder.
	{"transport.ns_per_cast", "ns", "lower", 0},
	{"group.nak.ns_per_cast", "ns", "lower", 0},
	{"group.gms.ns_per_cast", "ns", "lower", 0},
	{"stack.ns_per_cast", "ns", "lower", 0},
	{"core.ns_per_cast", "ns", "lower", 0},
	{"ladder.r5_ns_per_cast", "ns", "lower", 0},
	{"transport.allocs_per_cast", "count", "lower", 0},
	{"group.nak.allocs_per_cast", "count", "lower", 0},
	{"group.gms.allocs_per_cast", "count", "lower", 0},
	{"stack.allocs_per_cast", "count", "lower", 0},
	{"core.allocs_per_cast", "count", "lower", 0},
	{"ladder.r5_allocs_per_cast", "count", "lower", 0},
	{"ladder.residual_share", "share", "lower", 0},
}

// window turns one measured phase into the metrics every run can compute,
// end-to-end and per-layer alike; p50 and p99 are the phase's delivery
// latency in ns.
func window(c spec, p phaseOut, p50, p99 float64) map[string]float64 {
	casts := float64(p.sent)
	d := func(a, b uint64) float64 { return float64(b - a) }
	b, a := p.before, p.after
	wallS, clkS := float64(p.wallNs)/1e9, float64(p.clkNs)/1e9
	frames := d(b.txData, a.txData) + d(b.txCtl, a.txCtl)
	cpuNs := float64(a.cpuNs - b.cpuNs)
	mean := ratio(casts, wallS)
	rate := mean
	if len(p.sliceRates) >= 3 {
		rate = median(p.sliceRates)
	}
	m := map[string]float64{
		"casts_per_s":      rate,
		"casts_per_s_mean": mean,
		"deliver_p50_us":   p50 / 1e3,
		"deliver_p99_us":   p99 / 1e3,
		"allocs_per_cast":  ratio(d(b.mallocs, a.mallocs), casts),
		"tx_per_cast":      ratio(frames, casts),

		"stall_max_ms":    float64(p.stallNs) / 1e6,
		"vcasts_per_s":    ratio(casts, clkS),
		"vdeliver_p50_ms": p50 / 1e6,
		"vdeliver_p99_ms": p99 / 1e6,

		"netio.tx_data_per_cast":      ratio(d(b.txData, a.txData), casts),
		"netio.tx_control_per_cast":   ratio(d(b.txCtl, a.txCtl), casts),
		"netio.wire_bytes_per_cast":   ratio(d(b.wireBytes, a.wireBytes), casts),
		"udpnet.datagrams_per_cast":   ratio(d(b.datagrams, a.datagrams), casts),
		"udpnet.syscalls_per_cast":    ratio(d(b.txSys, a.txSys), casts),
		"udpnet.rx_syscalls_per_cast": ratio(d(b.rxSys, a.rxSys), casts),

		"flowctl.send_call_p50_us":       quantile(p.sendNs, 0.50) / 1e3,
		"flowctl.send_call_p99_us":       quantile(p.sendNs, 0.99) / 1e3,
		"flowctl.send_block_share":       ratio(float64(p.sendTotalNs)-casts*quantile(p.sendNs, 0.50), float64(p.clkNs)),
		"flowctl.window_highwater":       float64(p.flow.Window.HighWater),
		"flowctl.credit_hold_us":         ratio(p.inUseMean, ratio(casts, clkS)) * 1e6,
		"flowctl.queue_p50_us":           p50 / 1e3,
		"appia.mailbox_highwater":        float64(p.mailboxMax),
		"appia.pool_batches_per_cast":    ratio(d(b.pool.Batches, a.pool.Batches), casts),
		"appia.pool_steals_per_kcast":    ratio(d(b.pool.Steals, a.pool.Steals), casts) * 1e3,
		"appia.pool_parks_per_kcast":     ratio(d(b.pool.Parks, a.pool.Parks), casts) * 1e3,
		"group.nak.retained_highwater":   float64(max(p.flow.Nak.SentHighWater, p.flow.Nak.HistoryHighWater, p.flow.Nak.BufferHighWater)),
		"group.nak.evicted":              float64(p.flow.Nak.Evicted),
		"group.nak.retx_per_cast":        ratio(float64(p.retx), casts),
		"stack.buffered_sends_highwater": float64(p.bufferedMax),
		"stack.resubmit_overtaken":       float64(p.overtaken),
		"runtime.cpu_us_per_cast":        ratio(cpuNs, casts) / 1e3,
		"runtime.cpu_share":              ratio(cpuNs, float64(p.wallNs)),
		"runtime.gc_pause_ms":            d(b.gcPauseNs, a.gcPauseNs) / 1e6,
		"runtime.heap_mb":                float64(a.heap) / (1 << 20),
		"harness.gomaxprocs":             float64(runtime.GOMAXPROCS(0)),
	}
	if c.net == subVirt {
		m["vnet.ns_per_frame"] = ratio(float64(p.wallNs), frames)
	} else {
		m["vnet.ns_per_frame"] = 0 // no vnet under this workload
	}
	return m
}

// metrics computes every metric this run measured, by name.
func (o *runOut) metrics() map[string]float64 {
	m := window(o.w.spec, o.win, o.p50, o.p99)
	m["setup_s"] = median(o.setups)
	m["failed_share"] = ratio(float64(o.failed), float64(o.attempts))
	m["reconfig_p50_ms"] = median(o.idleTook)
	m["core.reconfigs"] = float64(len(o.idleTook) + len(o.loadTook))
	m["core.reconfig_loaded_p50_ms"] = median(o.loadTook)
	if !o.traced {
		return m
	}
	s := o.spans
	m["stack.down_p50_us"] = quantile(s.down, 0.50) / 1e3
	m["stack.down_p99_us"] = quantile(s.down, 0.99) / 1e3
	m["netio.wire_p50_us"] = quantile(s.wire, 0.50) / 1e3
	m["netio.wire_p99_us"] = quantile(s.wire, 0.99) / 1e3
	m["stack.up_p50_us"] = quantile(s.up, 0.50) / 1e3
	m["stack.up_p99_us"] = quantile(s.up, 0.99) / 1e3
	m["trace.span_coverage"] = ratio(float64(s.covered), float64(s.delivered))
	// What tracing cost this workload: in latency where one cast is
	// outstanding, in throughput where the sender floods.
	ref := window(o.w.spec, o.ref, o.refP50, 0)
	if o.w.ping {
		m["trace.overhead_share"] = ratio(m["deliver_p50_us"]-ref["deliver_p50_us"], ref["deliver_p50_us"])
	} else {
		m["trace.overhead_share"] = ratio(ref["casts_per_s"]-m["casts_per_s"], ref["casts_per_s"])
	}
	for k, v := range o.probes {
		m[k] = v
	}
	return m
}

// report prints every measured metric by name and unit, the latency sample
// size with the highest percentile it supports, and the violations.
func (o *runOut) report(w io.Writer, m map[string]float64) {
	mode := "untraced"
	if o.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (%s): %s\n", o.w.name, mode, o.w.why)
	units := make(map[string]string)
	for _, x := range append(append([]metric(nil), endToEnd...), perLayer...) {
		units[x.name] = x.unit
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, m[k], units[k])
	}
	if n := len(o.lat); n > 0 {
		q := topQuantile(n)
		fmt.Fprintf(w, "  delivery latency: %d samples; p%s = %.1f us is the highest percentile with >= 10 samples beyond it\n",
			n, strconv.FormatFloat(q*100, 'f', -1, 32), quantile(o.lat, q)/1e3)
	}
	fmt.Fprintf(w, "  casts attempted %d, failed %d\n", o.attempts, o.failed)
	for _, v := range o.notes {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
}
