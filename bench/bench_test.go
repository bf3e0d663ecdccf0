package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"morpheus/internal/chaos/invariants"
	"morpheus/internal/clock"
	"morpheus/internal/netio"
)

// The self-test runs the suite's machinery at a scale of seconds: every name
// the contract file lists is measured (and nothing else is printed), the
// statistics pick what they say they pick, the spans and the ladder rows sum
// to their totals, the oracle agrees with the chaos plane's checker, and
// lossy_vnet repeats exactly.

func TestMain(m *testing.M) {
	scaleDown = 100
	os.Exit(m.Run())
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the suite %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the suite %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []contractMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the suite %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the suite %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the suite's %v", kind, m.name, m.bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
}

// Every listed metric is measured, not defaulted: a name the run did not
// compute would print as a silent 0.
func TestEveryNameIsMeasured(t *testing.T) {
	w, _ := findWorkload("flood_loop")
	for _, traced := range []bool{false, true} {
		if traced && testing.Short() {
			continue // the probes open loopback sockets
		}
		out, err := runWorkload(w, 1, 1, 4000, traced)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || len(out.notes) != 0 {
			t.Fatalf("traced=%v: failed %d, violations %v", traced, out.failed, out.notes)
		}
		want := endToEnd
		if traced {
			want = perLayer
			out.probes = runProbes()
			ladder(out.probes)
		}
		m := out.metrics()
		for _, x := range want {
			if _, ok := m[x.name]; !ok {
				t.Errorf("traced=%v: %s is listed but not measured", traced, x.name)
			}
		}
		if !traced {
			continue
		}
		if cov := m["trace.span_coverage"]; cov < 0.99 {
			t.Errorf("span coverage %.3f: the tracing endpoint lost casts", cov)
		}
		// The ladder rows sum to R5 by construction.
		var ns, allocs float64
		for _, l := range []string{"transport", "group.nak", "group.gms", "stack", "core"} {
			ns += m[l+".ns_per_cast"]
			allocs += m[l+".allocs_per_cast"]
		}
		if r5 := m["ladder.r5_ns_per_cast"]; r5 <= 0 || math.Abs(ns-r5) > 1e-6*r5 {
			t.Errorf("ladder ns rows sum to %v, R5 is %v", ns, r5)
		}
		if r5 := m["ladder.r5_allocs_per_cast"]; r5 <= 0 || math.Abs(allocs-r5) > 1e-6*r5 {
			t.Errorf("ladder allocation rows sum to %v, R5 is %v", allocs, r5)
		}
	}
}

func TestTopQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.50}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {14_000, 0.999}, {2_000_000, 0.99999}} {
		if got := topQuantile(c.n); got != c.want {
			t.Errorf("topQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]uint32, 1000)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	if got := quantile(s, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond it)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// stubEndpoint is the substrate under the tracing endpoint in TestSpansSum.
type stubEndpoint struct {
	netio.Endpoint
	handler netio.Handler
}

func (s *stubEndpoint) Send(netio.NodeID, string, string, []byte) error { return nil }
func (s *stubEndpoint) Handle(_ string, h netio.Handler)                { s.handler = h }

// A synthetic cast walked through the tracing endpoint on a virtual clock:
// the three spans are what was slept between the boundaries, and they sum to
// the delivery latency.
func TestSpansSum(t *testing.T) {
	clk := clock.NewVirtual()
	defer clk.Stop()
	tr := newTracer(small, 2, 8)
	tr.tb = timebase{clk: clk, epoch: clock.VirtualBase}
	tr.on = true
	tr.begin(40)

	sender, receiver := &stubEndpoint{}, &stubEndpoint{}
	tx, rx := tr.wrap(sender, 0), tr.wrap(receiver, 1)
	rx.Handle("p", func(netio.NodeID, string, []byte) {})

	frame := make([]byte, 30+small) // stack headers, then the cast
	binary.LittleEndian.PutUint64(frame[30:], 42)
	binary.LittleEndian.PutUint32(frame[30+16:], magic)

	clk.Sleep(time.Millisecond)
	t0 := tr.tb.now()
	tr.sent(42, t0)
	clk.Sleep(10 * time.Microsecond)
	_ = tx.Send(2, "p", "data", frame)
	_ = tx.Send(2, "p", "control", frame) // a cast under the control class: a retransmission, no mark
	clk.Sleep(100 * time.Microsecond)
	receiver.handler(1, "p", frame)
	clk.Sleep(5 * time.Microsecond)
	_ = tx.Send(2, "p", "data", frame) // a retransmission: first marks stand
	receiver.handler(1, "p", frame)
	tr.delivered(42, 1, tr.tb.now()-t0)

	if got := tr.retx.Load(); got != 1 {
		t.Errorf("counted %d retransmissions, want 1", got)
	}
	s := tr.spans()
	if s.covered != 1 || s.delivered != 1 {
		t.Fatalf("covered %d of %d deliveries, want 1 of 1", s.covered, s.delivered)
	}
	if s.down[0] != 10_000 || s.wire[0] != 100_000 || s.up[0] != 5_000 {
		t.Errorf("spans = %d %d %d ns, want 10000 100000 5000", s.down[0], s.wire[0], s.up[0])
	}
	if sum, lat := s.down[0]+s.wire[0]+s.up[0], tr.column(1)[0]; sum != lat {
		t.Errorf("down+wire+up = %d, delivery latency = %d", sum, lat)
	}
}

// The streaming oracle and invariants.CheckDeliveries agree on which
// delivery sequences are clean.
func TestOracleAgreesWithInvariants(t *testing.T) {
	for _, c := range []struct {
		name string
		seq  []int
		sent int
	}{
		{"clean", []int{0, 1, 2, 3, 4}, 5},
		{"duplicate", []int{0, 1, 1, 2, 3, 4}, 5},
		{"overtaken", []int{0, 2, 1, 3, 4}, 5},
		{"missing", []int{0, 1, 3, 4}, 5},
		{"truncated", []int{0, 1, 2}, 5},
	} {
		r := offlineCluster(64).recv[1]
		var ref []invariants.Delivery
		for _, i := range c.seq {
			p := make([]byte, small)
			binary.LittleEndian.PutUint64(p, uint64(i))
			r.deliver(0, p)
			ref = append(ref, invariants.Delivery{Origin: 1, Stream: "s", Index: i})
		}
		want := invariants.CheckDeliveries("ref", ref, map[invariants.StreamKey]int{{Origin: 1, Stream: "s"}: c.sent})
		got := r.bad.Load()+r.late.Load() > 0 || r.count[0] != uint64(c.sent)
		if got != (len(want) > 0) {
			t.Errorf("%s: oracle flags=%v, invariants.CheckDeliveries says %v", c.name, got, want)
		}
	}
}

// lossy_vnet with one seed and a fixed cast count repeats exactly: virtual
// time, every count, the frames on the wire and the traced spans.
func TestLossyVnetRepeatsExactly(t *testing.T) {
	w, _ := findWorkload("lossy_vnet")
	var first map[string]float64
	for run := 0; run < 2; run++ {
		out, err := runWorkload(w, 7, 1, 3000, true)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || len(out.notes) != 0 {
			t.Fatalf("failed %d, violations %v", out.failed, out.notes)
		}
		m := out.metrics()
		if first == nil {
			first = m
			continue
		}
		for _, name := range []string{"vcasts_per_s", "vdeliver_p50_ms", "vdeliver_p99_ms", "deliver_p50_us", "deliver_p99_us",
			"tx_per_cast", "netio.tx_data_per_cast", "netio.tx_control_per_cast", "group.nak.retx_per_cast",
			"stack.down_p50_us", "netio.wire_p99_us", "stack.up_p99_us", "trace.span_coverage"} {
			if m[name] != first[name] || m[name] == 0 {
				t.Errorf("%s: %v then %v, want identical and non-zero", name, first[name], m[name])
			}
		}
	}
}
