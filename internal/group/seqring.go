package group

// seqRing holds values keyed by consecutive sequence numbers: a power-of-two
// ring addressed by seq − base that grows by doubling. The zero T is a hole.
// The retained span [base, end) only ever loses a prefix (advance), the shape
// of every seq-keyed set in the reliable layer — casts are numbered
// consecutively and stability retires them in order — so lookup is an index,
// eviction and garbage collection are "advance base", and iteration is
// ordered by construction. put allocates for the span base..seq: a caller
// indexing with a sequence number off the wire must bound seq − base itself.
type seqRing[T comparable] struct {
	slots []T    // len is zero or a power of two; seq lives at slots[seq&(len-1)]
	base  uint64 // lowest retained seq; everything below is gone for good
	end   uint64 // one past the highest seq ever put (base <= end)
	live  int    // non-hole slots in [base, end)
	// drop, when set, is handed every value advance retires: slot advance is
	// where a retained message is freed. put and take never call it — a
	// caller overwriting or removing a value still owns the old one.
	drop func(T)
}

// get returns the value at seq, the zero T for a hole or outside the span.
func (r *seqRing[T]) get(seq uint64) (v T) {
	if seq >= r.base && seq < r.end {
		v = r.slots[seq&uint64(len(r.slots)-1)]
	}
	return v
}

// put stores v at seq; a seq below base is already retired and ignored.
func (r *seqRing[T]) put(seq uint64, v T) {
	if seq < r.base {
		return
	}
	if need := seq - r.base + 1; need > uint64(len(r.slots)) {
		n := max(len(r.slots), 8)
		for uint64(n) < need {
			n *= 2
		}
		grown := make([]T, n)
		for q := r.base; q < r.end; q++ {
			grown[q&uint64(n-1)] = r.slots[q&uint64(len(r.slots)-1)]
		}
		r.slots = grown
	}
	var zero T
	p := &r.slots[seq&uint64(len(r.slots)-1)]
	if seq >= r.end {
		r.end = seq + 1
	} else if *p != zero {
		r.live--
	}
	if v != zero {
		r.live++
	}
	*p = v
}

// take removes and returns the value at seq.
func (r *seqRing[T]) take(seq uint64) (v T) {
	var zero T
	if v = r.get(seq); v != zero {
		r.put(seq, zero)
	}
	return v
}

// advance retires every seq below to and reports how many occupied slots
// that dropped. Advancing past end leaves an empty ring based at to.
func (r *seqRing[T]) advance(to uint64) (dropped int) {
	var zero T
	for q := r.base; q < to && q < r.end; q++ {
		if p := &r.slots[q&uint64(len(r.slots)-1)]; *p != zero {
			if r.drop != nil {
				r.drop(*p)
			}
			*p = zero
			dropped++
		}
	}
	r.live -= dropped
	r.base = max(r.base, to)
	r.end = max(r.end, to)
	return dropped
}

// first returns the lowest occupied seq.
func (r *seqRing[T]) first() (uint64, bool) {
	var zero T
	for q := r.base; r.live > 0 && q < r.end; q++ {
		if r.slots[q&uint64(len(r.slots)-1)] != zero {
			return q, true
		}
	}
	return 0, false
}

// clamp narrows the closed range [from, to] to the retained span, returned
// half-open: however far apart from and to are, lo..hi walks at most the
// slots the ring holds.
func (r *seqRing[T]) clamp(from, to uint64) (lo, hi uint64) {
	lo, hi = max(from, r.base), r.end
	if to < hi {
		hi = to + 1
	}
	return lo, hi
}
