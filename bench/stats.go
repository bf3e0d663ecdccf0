package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of an ascending
// sample; 0 for an empty one.
func quantile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(q*float64(n)+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return float64(sorted[i])
}

// tailLadder are the percentiles a latency distribution is reported at, in
// ascending order.
var tailLadder = []float64{0.50, 0.90, 0.99, 0.999, 0.9999, 0.99999}

// topQuantile picks the highest rung of tailLadder that still has at least
// ten samples beyond it in a sample of n: the highest percentile the sample
// supports. Below twenty samples even the median does not, and it is
// returned regardless.
func topQuantile(n int) float64 {
	top := tailLadder[0]
	for _, q := range tailLadder {
		// The q-quantile is the ceil(q·n)-th sample (nearest rank).
		if rank := int(math.Ceil(q*float64(n) - 1e-9)); n-rank >= 10 {
			top = q
		}
	}
	return top
}

// median returns the median of xs (mean of the middle pair for even
// lengths); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0: per-cast rates of a phase that completed
// no cast report 0, not NaN (JSON cannot carry it).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latChunks is how many time-contiguous chunks each receiver's latency
// samples are cut into.
const latChunks = 20

// chunkedQuantiles reports a latency distribution's p50 and p99 as the
// median over chunks of each chunk's own quantile. cols holds one receiver's
// samples each, in delivery order, so a chunk is a stretch of the run: a
// hiccup that inflates the tail of one stretch moves one chunk's p99, not
// the run's. Chunks hold at least 100 samples.
func chunkedQuantiles(cols [][]uint32) (p50, p99 float64) {
	var p50s, p99s []float64
	for _, col := range cols {
		k := min(latChunks, max(len(col)/100, 1))
		for i := 0; i < k; i++ {
			chunk := slices.Clone(col[i*len(col)/k : (i+1)*len(col)/k])
			if len(chunk) == 0 {
				continue
			}
			slices.Sort(chunk)
			p50s = append(p50s, quantile(chunk, 0.50))
			p99s = append(p99s, quantile(chunk, 0.99))
		}
	}
	return median(p50s), median(p99s)
}
