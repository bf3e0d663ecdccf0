package flowctl

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestAcquire drives the one acquire entry point through every way a caller
// can ask for credits: one or many, waiting or not, bounded by a context or
// not, on an open or a closed window.
func TestAcquire(t *testing.T) {
	type step struct {
		release int           // first return this many credits
		close   bool          // and close the window,
		n       int           // then acquire n credits,
		wait    bool          // parking until they are free,
		ctx     time.Duration // bounded by a context expiring after this long (0: no context),
		want    error         // with this result.
		// frees, when set, says the acquire parks: releases of these sizes
		// follow one at a time, and only the last may wake it.
		frees []int
	}
	const ms = time.Millisecond
	for _, tc := range []struct {
		name  string
		cap   int
		steps []step
		want  Stats // at the end; Capacity is filled in
	}{
		{"without wait a full window rejects", 2,
			[]step{{n: 1}, {n: 1}, {n: 1, want: ErrWindowFull}, {release: 1, n: 1}},
			Stats{InUse: 2, HighWater: 2, Acquired: 3, Released: 1, Rejected: 1}},
		// The N-credit variant the byte window uses: credits move in arbitrary
		// denominations and the bound holds for the sum, not the count.
		{"without wait the bound is on the sum", 100,
			[]step{{n: 60}, {n: 40}, {n: 1, want: ErrWindowFull}, {release: 60, n: 60}},
			Stats{InUse: 100, HighWater: 100, Acquired: 160, Released: 60, Rejected: 1}},
		// A large request waits for enough credits, not merely for any
		// release: 20 free, 50 wanted, so 30 free must not wake it.
		{"a wait ends only once enough credits are free", 100,
			[]step{{n: 80, wait: true}, {n: 50, wait: true, frees: []int{10, 30}}},
			Stats{InUse: 90, HighWater: 90, Acquired: 130, Released: 40}},
		{"a context expiry ends a one-credit wait", 1,
			[]step{{n: 1, wait: true, ctx: time.Hour}, {n: 1, wait: true, ctx: 30 * ms, want: context.DeadlineExceeded},
				{release: 1, n: 1, wait: true, ctx: time.Hour}}, // a fresh context succeeds once a credit frees
			Stats{InUse: 1, HighWater: 1, Acquired: 2, Released: 1}},
		{"a context expiry and a close end an n-credit wait", 10,
			[]step{{n: 10, wait: true, ctx: time.Hour}, {n: 5, wait: true, ctx: 30 * ms, want: context.DeadlineExceeded},
				{close: true, n: 5, wait: true, ctx: time.Hour, want: ErrWindowClosed}},
			Stats{InUse: 10, HighWater: 10, Acquired: 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := New(tc.cap, nil)
			for i, s := range tc.steps {
				w.Release(s.release)
				if s.close {
					w.Close()
				}
				var ctx context.Context
				if s.ctx > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(context.Background(), s.ctx)
					defer cancel()
				}
				got := make(chan error, 1)
				go func() { got <- w.acquire(ctx, s.n, s.wait) }()
				for j, n := range s.frees {
					select {
					case err := <-got:
						t.Fatalf("step %d returned %v with %d of its releases still to come", i, err, len(s.frees)-j)
					case <-time.After(20 * ms):
					}
					w.Release(n)
				}
				select {
				case err := <-got:
					if !errors.Is(err, s.want) {
						t.Fatalf("step %d: err = %v, want %v", i, err, s.want)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("step %d never returned", i)
				}
			}
			tc.want.Capacity = tc.cap
			if st := w.Stats(); st != tc.want {
				t.Fatalf("stats = %+v, want %+v", st, tc.want)
			}
		})
	}
}

// TestClamp pins the cost clamp that keeps a single oversized message
// admissible: costs are floored at one credit and capped at the window
// capacity so an acquire can always eventually succeed.
func TestClamp(t *testing.T) {
	w := New(100, nil)
	for _, tc := range []struct{ in, want int }{
		{-5, 1}, {0, 1}, {1, 1}, {50, 50}, {100, 100}, {101, 100}, {1 << 20, 100},
	} {
		if got := w.Clamp(tc.in); got != tc.want {
			t.Errorf("Clamp(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	var nilW *Window
	if got := nilW.Clamp(42); got != 42 {
		t.Errorf("nil Clamp(42) = %d, want passthrough 42", got)
	}
	// An over-capacity message must be admissible on an empty window.
	if err := w.acquire(nil, 1<<20, false); err != nil {
		t.Fatalf("oversize acquire: %v", err)
	}
}

// TestWindowsCredit pins what the pair charges one cast and that a failure on
// the byte window gives the message credit back.
func TestWindowsCredit(t *testing.T) {
	p := Windows{Msgs: New(4, nil), Bytes: New(10, nil)}
	first, err := p.Acquire(nil, false, 8)
	if err != nil || first != (Credit{Msgs: 1, Bytes: 8}) {
		t.Fatalf("Acquire(8 bytes) = %+v, %v", first, err)
	}
	if c, err := p.Acquire(nil, false, 8); !errors.Is(err, ErrWindowFull) || c != (Credit{}) {
		t.Fatalf("Acquire over the byte budget = %+v, %v, want nothing and ErrWindowFull", c, err)
	}
	if got := p.Msgs.InUse(); got != 1 {
		t.Fatalf("message credits in use after the byte window refused = %d, want 1", got)
	}
	p.Release(first)
	big, err := p.Acquire(nil, false, 1<<20)
	if err != nil || big != (Credit{Msgs: 1, Bytes: 10}) {
		t.Fatalf("oversize Acquire = %+v, %v, want the whole byte window", big, err)
	}
	p.Release(big)
	p.Release(Credit{}) // holds nothing: a no-op
	for _, w := range []*Window{p.Msgs, p.Bytes} {
		if st := w.Stats(); st.InUse != 0 || st.Acquired != st.Released {
			t.Fatalf("window not drained: %+v", st)
		}
	}
	// Byte windowing off: a cast holds its message credit alone.
	if c, err := (Windows{Msgs: New(1, nil)}).Acquire(nil, true, 99); err != nil || c != (Credit{Msgs: 1}) {
		t.Fatalf("Acquire without a byte window = %+v, %v", c, err)
	}
	p.Close()
	if _, err := p.Acquire(nil, true, 1); !errors.Is(err, ErrWindowClosed) {
		t.Fatalf("Acquire after Close = %v", err)
	}
}
