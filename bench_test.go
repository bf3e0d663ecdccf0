package morpheus_test

// Benchmarks regenerating the paper's evaluation, one per table/figure (see
// DESIGN.md's experiment index). Each benchmark iteration is a complete
// scenario run at reduced scale; custom metrics carry the quantities the
// paper plots (message counts, latencies, ratios). Paper-scale runs:
//
//	go run ./cmd/morpheus-bench -run figure3            (40 000 msgs)
//	go test -bench=. -benchmem                          (reduced scale)

import (
	"strconv"
	"testing"
	"time"

	"morpheus"
	"morpheus/internal/experiment"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
)

// benchMessages is the per-run message count for benchmark iterations; the
// paper used 40 000, which cmd/morpheus-bench reproduces.
const benchMessages = 500

// BenchmarkFigure3Mobile regenerates Figure 3: messages transmitted by the
// mobile device, optimized (Mecho) vs not optimized (plain fan-out), per
// group size.
func BenchmarkFigure3Mobile(b *testing.B) {
	for _, n := range []int{2, 3, 6, 9} {
		b.Run(sizeName(n), func(b *testing.B) {
			var opt, notOpt float64
			for i := 0; i < b.N; i++ {
				rows, err := experiment.RunFigure3(experiment.Figure3Config{
					Sizes:    []int{n},
					Messages: benchMessages,
					Timeout:  2 * time.Minute,
					Seed:     int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				opt = float64(rows[0].Optimized)
				notOpt = float64(rows[0].NotOptimized)
			}
			b.ReportMetric(opt, "optimized-msgs")
			b.ReportMetric(notOpt, "notoptimized-msgs")
		})
	}
}

// BenchmarkFixedRelayLoad is E2: the data traffic absorbed by the fixed
// relay in the optimized configuration (the paper's footnote: the mobile's
// savings come "at the expense of an increase in the number of messages of
// the fixed node").
func BenchmarkFixedRelayLoad(b *testing.B) {
	for _, n := range []int{3, 6, 9} {
		b.Run(sizeName(n), func(b *testing.B) {
			var relay float64
			for i := 0; i < b.N; i++ {
				rows, err := experiment.RunFigure3(experiment.Figure3Config{
					Sizes:    []int{n},
					Messages: benchMessages,
					Timeout:  2 * time.Minute,
					Seed:     int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				relay = float64(rows[0].RelayData)
			}
			b.ReportMetric(relay, "relay-data-msgs")
		})
	}
}

// BenchmarkControlOverhead is E3: the adaptive version's control traffic at
// the mobile device (paper footnote 1: "a small increase in the traffic due
// to the need of exchanging more control information").
func BenchmarkControlOverhead(b *testing.B) {
	var data, control float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFigure3(experiment.Figure3Config{
			Sizes:    []int{6},
			Messages: benchMessages,
			Timeout:  2 * time.Minute,
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		data = float64(rows[0].OptimizedData)
		control = float64(rows[0].OptimizedControl)
	}
	b.ReportMetric(data, "data-msgs")
	b.ReportMetric(control, "control-msgs")
}

// BenchmarkReconfigLatency is E4: decision-to-deployment latency of the
// §3.3 reconfiguration procedure.
func BenchmarkReconfigLatency(b *testing.B) {
	for _, n := range []int{2, 4, 6, 9} {
		b.Run(sizeName(n), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				rows, err := experiment.RunReconfigLatency([]int{n}, time.Minute, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				lat = float64(rows[0].Latency.Microseconds())
			}
			b.ReportMetric(lat, "µs/reconfig")
		})
	}
}

// BenchmarkMulticastStrategies is E5: per-node load of fan-out vs native
// multicast vs epidemic dissemination.
func BenchmarkMulticastStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunMulticastStrategies(experiment.StrategyConfig{
			Sizes:    []int{16},
			Messages: 100,
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.MaxNodeTx), r.Strategy+"-max-node-tx")
		}
	}
}

// BenchmarkEnergyLifetime is E6: casts sustained before the first battery
// death, static relay vs battery-aware rotation.
func BenchmarkEnergyLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunEnergyLifetime(experiment.EnergyConfig{
			Nodes:    4,
			Capacity: 0.25,
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.CastsBeforeDeath), r.Mode+"-casts")
		}
	}
}

// BenchmarkErrorRecovery is E7: ARQ vs FEC across loss rates — traffic per
// delivered payload and coverage.
func BenchmarkErrorRecovery(b *testing.B) {
	for _, p := range []float64{0.01, 0.10} {
		b.Run(lossName(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiment.RunErrorRecovery(experiment.ErrorRecoveryConfig{
					LossRates: []float64{p},
					Nodes:     4,
					Messages:  200,
					Seed:      int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					b.ReportMetric(r.TxPerDelivery, r.Strategy+"-tx/delivery")
					b.ReportMetric(r.DeliveryRatio, r.Strategy+"-delivery")
				}
			}
		})
	}
}

// BenchmarkMultiGroupHosting is E9: a node hosting four groups at once
// (two adapting under load) — per-group transmission cost of the mobile,
// which must match the dedicated single-group runs.
func BenchmarkMultiGroupHosting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunMultiGroup(experiment.MultiGroupConfig{
			StressMessages: 30,
			Messages:       100,
			Seed:           int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.MobileDataTx), r.Group+"-data-tx")
			b.ReportMetric(float64(r.Leaked), r.Group+"-leaked")
		}
	}
}

// BenchmarkFlushAblation is E8: message continuity across reconfiguration
// with and without the view-synchronous flush.
func BenchmarkFlushAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFlushAblation(150, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Lost), r.Mode+"-lost-msgs")
		}
	}
}

// startLoopNode starts a single-member node on a fresh loopnet, torn down
// with the benchmark.
func startLoopNode(b *testing.B) *morpheus.Node {
	b.Helper()
	nw := loopnet.New()
	b.Cleanup(func() { nw.Close() })
	ep, err := nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed, Segments: []string{"lan"}})
	if err != nil {
		b.Fatal(err)
	}
	nd, err := morpheus.Start(morpheus.Config{Endpoint: ep, Members: []morpheus.NodeID{1}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { nd.Close() })
	return nd
}

// BenchmarkSendWindow measures the Group.Send hot path through the
// credit-based send window: its steady-state cost is one mutex round trip
// per send plus the stability-driven release bookkeeping, with blocking
// only when the sender genuinely outruns the stack.
func BenchmarkSendWindow(b *testing.B) {
	nd := startLoopNode(b)
	payload := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nd.Send(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkGroupHosting is the scheduler pool's per-group overhead proof:
// one node hosts `groups` single-member groups while each op sends one
// message round-robin across a fixed 16-group active set. Flat per-group
// hosting overhead means the hosted=1024 ns/op (and allocs/op) stay within
// 2x of hosted=16 — an idle hosted group must cost nothing per op, because
// it is simply absent from every run queue. The all-active scaling sweep
// lives at the scheduler layer in BenchmarkSchedulerPool.
func BenchmarkGroupHosting(b *testing.B) {
	const active = 16
	for _, groups := range []int{16, 1024} {
		b.Run("hosted="+strconv.Itoa(groups), func(b *testing.B) {
			nd := startLoopNode(b)
			gs := make([]*morpheus.Group, groups)
			for i := range gs {
				var err error
				gs[i], err = nd.Join("h"+strconv.Itoa(i), morpheus.GroupConfig{Members: []morpheus.NodeID{1}})
				if err != nil {
					b.Fatal(err)
				}
			}
			payload := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := gs[i%active].Send(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}

func sizeName(n int) string {
	return "n=" + strconv.Itoa(n)
}

func lossName(p float64) string {
	if p < 0.05 {
		return "loss=1pct"
	}
	return "loss=10pct"
}
