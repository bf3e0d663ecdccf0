package flowctl

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morpheus/internal/clock"
)

func TestNilWindowIsDisabled(t *testing.T) {
	var w *Window
	if err := w.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := w.acquire(nil, 1, false); err != nil {
		t.Fatal(err)
	}
	w.Release(3)
	w.Close()
	if w.Capacity() != 0 || w.InUse() != 0 {
		t.Fatal("nil window must report zeroes")
	}
	if got := New(0, nil); got != nil {
		t.Fatalf("New(0) = %v, want nil (disabled)", got)
	}
	if got := New(-5, nil); got != nil {
		t.Fatalf("New(-5) = %v, want nil (disabled)", got)
	}
}

func TestAcquireBlocksUntilRelease(t *testing.T) {
	w := New(1, nil)
	if err := w.Acquire(); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- w.Acquire() }()
	select {
	case err := <-got:
		t.Fatalf("second Acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	w.Release(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire never woke after Release")
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	w := New(1, nil)
	if err := w.Acquire(); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- w.Acquire() }()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrWindowClosed) {
			t.Fatalf("err = %v, want ErrWindowClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire never woke after Close")
	}
	if err := w.acquire(nil, 1, false); !errors.Is(err, ErrWindowClosed) {
		t.Fatalf("TryAcquire after Close = %v", err)
	}
}

// TestConcurrentAccounting is the -race credit accounting check at the
// semaphore level: hammered acquire/release from many goroutines loses and
// double-frees nothing.
func TestConcurrentAccounting(t *testing.T) {
	const (
		capacity = 8
		workers  = 16
		rounds   = 500
	)
	w := New(capacity, nil)
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				if err := w.Acquire(); err != nil {
					t.Error(err)
					return
				}
				if cur := inFlight.Add(1); cur > capacity {
					t.Errorf("capacity violated: %d in flight", cur)
				}
				inFlight.Add(-1)
				w.Release(1)
			}
		}()
	}
	wg.Wait()
	st := w.Stats()
	if st.InUse != 0 {
		t.Fatalf("in use at quiescence: %d", st.InUse)
	}
	if st.Acquired != st.Released || st.Acquired != workers*rounds {
		t.Fatalf("accounting: acquired %d released %d want %d", st.Acquired, st.Released, workers*rounds)
	}
	if st.HighWater > capacity {
		t.Fatalf("high water %d exceeds capacity %d", st.HighWater, capacity)
	}
}

// TestOverRelease documents the defensive clamp: releasing more than is
// held keeps the window usable and surfaces the discrepancy in Stats.
func TestOverRelease(t *testing.T) {
	w := New(2, nil)
	if err := w.Acquire(); err != nil {
		t.Fatal(err)
	}
	w.Release(5)
	if got := w.InUse(); got != 0 {
		t.Fatalf("in use = %d", got)
	}
	st := w.Stats()
	if st.Released <= st.Acquired {
		t.Fatalf("over-release must be visible: %+v", st)
	}
	if err := w.acquire(nil, 1, false); err != nil {
		t.Fatal("window unusable after clamped over-release")
	}
}

// TestVirtualClockBlockedAcquire: a sender actor blocked on the window is
// an ordinary parked actor of the virtual clock — released deterministically
// by another actor's Release.
func TestVirtualClockBlockedAcquire(t *testing.T) {
	clk := clock.NewVirtual()
	defer clk.Stop()
	w := New(1, clk)
	if err := w.Acquire(); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	done := make(chan struct{})
	clk.Go(func() {
		defer close(done)
		if err := w.Acquire(); err != nil {
			t.Error(err)
			return
		}
		order <- "acquired"
	})
	clk.Go(func() {
		clk.Sleep(10 * time.Millisecond)
		order <- "released"
		w.Release(1)
	})
	clk.Wait(done)
	if first := <-order; first != "released" {
		t.Fatalf("blocked acquire completed before the release (%q first)", first)
	}
}
