package group

import (
	"fmt"
	"math/rand"
	"testing"
)

// refRing is the map the ring replaced, kept as the reference the ring is
// checked against: same operations, no cleverness.
type refRing struct {
	m         map[uint64]int
	base, end uint64
}

func (r *refRing) put(seq uint64, v int) {
	if seq < r.base {
		return
	}
	if v == 0 {
		delete(r.m, seq)
	} else {
		r.m[seq] = v
	}
	r.end = max(r.end, seq+1)
}

func (r *refRing) advance(to uint64) (dropped int) {
	for seq := range r.m {
		if seq < to {
			delete(r.m, seq)
			dropped++
		}
	}
	r.base, r.end = max(r.base, to), max(r.end, to)
	return dropped
}

func (r *refRing) first() (uint64, bool) {
	low, ok := uint64(0), false
	for seq := range r.m {
		if !ok || seq < low {
			low, ok = seq, true
		}
	}
	return low, ok
}

// TestSeqRingMatchesMap drives a ring and the map reference through the same
// random put / get / advance schedule — holes, overwrites, zero puts, growth,
// wrap-around of the slot index, and base resets past the end — and requires
// identical answers throughout.
func TestSeqRingMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ring seqRing[int]
		ref := refRing{m: map[uint64]int{}}
		// Half the runs start far from zero so seq&mask wraps immediately.
		if seed%2 == 0 {
			start := uint64(rng.Int63())
			ring.advance(start)
			ref.advance(start)
		}
		maxSpan := uint64(1) << (2 + seed%8) // 4 .. 512: several doublings
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // put, sometimes a hole, sometimes below base
				seq := ref.base + uint64(rng.Int63n(int64(maxSpan)))
				if rng.Intn(20) == 0 && ref.base > 0 {
					seq = ref.base - 1
				}
				v := rng.Intn(4) // 0 writes a hole
				ring.put(seq, v)
				ref.put(seq, v)
			case op < 8: // advance a little
				to := ref.base + uint64(rng.Int63n(int64(maxSpan/2+1)))
				if got, want := ring.advance(to), ref.advance(to); got != want {
					t.Fatalf("seed %d step %d: advance(%d) dropped %d, want %d", seed, step, to, got, want)
				}
			case op < 9: // base reset: jump past everything retained
				to := ref.end + uint64(rng.Int63n(1000))
				if got, want := ring.advance(to), ref.advance(to); got != want {
					t.Fatalf("seed %d step %d: reset advance(%d) dropped %d, want %d", seed, step, to, got, want)
				}
			default: // backwards advance is a no-op
				ring.advance(ref.base / 2)
				ref.advance(ref.base / 2)
			}

			if ring.base != ref.base || ring.end != ref.end || ring.live != len(ref.m) {
				t.Fatalf("seed %d step %d: ring [%d,%d) len %d, want [%d,%d) len %d",
					seed, step, ring.base, ring.end, ring.live, ref.base, ref.end, len(ref.m))
			}
			if n := uint64(len(ring.slots)); n&(n-1) != 0 || n > max(8, maxSpan) {
				t.Fatalf("seed %d step %d: %d slots for spans under %d", seed, step, n, maxSpan)
			}
			gotLow, gotOK := ring.first()
			wantLow, wantOK := ref.first()
			if gotOK != wantOK || gotLow != wantLow {
				t.Fatalf("seed %d step %d: first = %d,%v want %d,%v", seed, step, gotLow, gotOK, wantLow, wantOK)
			}
			// Every seq in and just around the span reads back the same,
			// and iteration by index is ascending by construction.
			lo := ref.base - min(ref.base, 2)
			for seq := lo; seq < ref.end+2; seq++ {
				if got, want := ring.get(seq), ref.m[seq]; got != want {
					t.Fatalf("seed %d step %d: get(%d) = %d, want %d", seed, step, seq, got, want)
				}
			}
		}
	}
}

func TestSeqRingClamp(t *testing.T) {
	var ring seqRing[int]
	ring.advance(100)
	ring.put(100, 1)
	ring.put(107, 1)
	for _, c := range []struct{ from, to, lo, hi uint64 }{
		{0, ^uint64(0), 100, 108}, // the hostile range: walk the span, not the range
		{1, 1 << 62, 100, 108},
		{102, 105, 102, 106},
		{0, 99, 100, 100},    // entirely retired
		{108, 200, 108, 108}, // entirely ahead
		{105, 101, 105, 102}, // inverted: empty
	} {
		lo, hi := ring.clamp(c.from, c.to)
		if lo != c.lo || hi != c.hi {
			t.Errorf("clamp(%d, %d) = [%d,%d), want [%d,%d)", c.from, c.to, lo, hi, c.lo, c.hi)
		}
		if hi > lo && hi-lo > uint64(len(ring.slots)) {
			t.Errorf("clamp(%d, %d) walks %d steps over %d slots", c.from, c.to, hi-lo, len(ring.slots))
		}
	}
}

// TestSeqRingDropHook: advance hands the hook every occupied slot it retires,
// once; put (overwrite included) and take never call it.
func TestSeqRingDropHook(t *testing.T) {
	dropped := map[int]int{}
	ring := seqRing[int]{drop: func(v int) { dropped[v]++ }}
	for seq := uint64(1); seq <= 6; seq++ {
		ring.put(seq, int(seq))
	}
	ring.put(2, 20) // overwrite: the caller still owns the old value
	ring.put(3, 0)  // hole
	if got := ring.take(4); got != 4 || ring.get(4) != 0 {
		t.Fatalf("take(4) = %d, slot now %d", got, ring.get(4))
	}
	if len(dropped) != 0 {
		t.Fatalf("put/take dropped %v", dropped)
	}
	if n := ring.advance(6); n != 3 {
		t.Fatalf("advance dropped %d slots, want 3 (1, 20, 5)", n)
	}
	ring.advance(6) // again: nothing left below 6
	ring.advance(100)
	want := map[int]int{1: 1, 20: 1, 5: 1, 6: 1}
	if fmt.Sprint(dropped) != fmt.Sprint(want) {
		t.Fatalf("dropped %v, want %v", dropped, want)
	}
}
