// Package flowctl is the credit plane of the bounded-memory runtime: a
// clock-aware counting semaphore (Window) that puts a protocol-enforced
// bound on the number of application casts a group may have in flight.
// Credits are denominated by the caller: the runtime's message window
// charges one credit per cast, and its byte window charges credits per
// payload byte (clamped by Clamp), so backpressure can bound retained bytes
// as well as retained messages. Credit is what one accepted cast holds of
// both, and Windows is the pair it is acquired from and released to.
//
// The paper's habitat is resource-constrained (mobile nodes, radio-cost
// budgets), yet a fire-and-forget Send gives the runtime three unbounded
// queues: the scheduler mailbox, the NAK retransmission buffers, and the
// GMS/stack-manager resubmit buffers. The Window closes the loop that
// bounds all three: a credit is consumed when a payload is accepted by
// Send and released only when the reliable layer's stability gossip
// proves every peer has delivered it (or when the cast's channel is torn
// down, at which point the view-synchronous flush has equalised
// deliveries). Everything the runtime retains for a cast — its mailbox
// hops, its retransmission clone, its resubmit-buffer copy — therefore
// lives between one acquire and one release, and total retention is
// bounded by the window size.
//
// Blocking waits go through the configured clock, so under the virtual
// time plane (internal/clock) a sender stalled on a full window is an
// ordinary parked actor: the stall, the stability gossip that releases
// it, and the resulting wakeup order are all part of the deterministic
// timeline the golden-replay suite pins.
package flowctl

import (
	"context"
	"errors"
	"sync"

	"morpheus/internal/clock"
)

// Window errors.
var (
	// ErrWindowFull is returned by non-waiting (TrySend-style) acquires
	// when the credits asked for are not all free.
	ErrWindowFull = errors.New("flowctl: send window full")
	// ErrWindowClosed reports an acquire on (or a blocked acquire woken
	// by) a closed window — the group has been left or its node closed.
	ErrWindowClosed = errors.New("flowctl: send window closed")
)

// Window is a counting semaphore over in-flight send credits. All methods
// are safe for concurrent use. A nil *Window is a valid "windowing
// disabled" instance: acquires succeed immediately and releases are
// no-ops, so callers need no branching.
type Window struct {
	mu     sync.Mutex
	clk    clock.Clock
	cap    int
	used   int
	closed bool
	// gate is non-nil while at least one acquirer waits; it is closed
	// (and replaced lazily) whenever credits are released or the window
	// closes, waking every waiter to recheck.
	gate chan struct{}

	// Monotone statistics; deterministic under a virtual clock.
	highWater int
	acquired  uint64
	released  uint64
	rejected  uint64
}

// New returns a window with the given credit capacity on the given clock
// (nil means wall). A non-positive capacity returns nil — the disabled
// window.
func New(capacity int, clk clock.Clock) *Window {
	if capacity <= 0 {
		return nil
	}
	return &Window{clk: clock.Or(clk), cap: capacity}
}

// tryAcquireNLocked takes n credits atomically if available. Must hold
// w.mu; n must already be clamped to the capacity.
func (w *Window) tryAcquireNLocked(n int) bool {
	if w.used+n > w.cap {
		return false
	}
	w.used += n
	w.acquired += uint64(n)
	if w.used > w.highWater {
		w.highWater = w.used
	}
	return true
}

// Clamp bounds an acquisition cost to the window capacity, so a single
// item costing more than the whole window charges exactly the whole
// window instead of deadlocking forever; it also floors the cost at one
// credit, since anything metered occupies at least a slot. Returns n
// unchanged on the disabled window.
func (w *Window) Clamp(n int) int {
	if w == nil {
		return n
	}
	if n < 1 {
		n = 1
	}
	if n > w.cap { // cap is immutable after New: no lock needed
		n = w.cap
	}
	return n
}

// waitChLocked returns the channel the next release will close. Must hold
// w.mu.
func (w *Window) waitChLocked() chan struct{} {
	if w.gate == nil {
		w.gate = make(chan struct{})
	}
	return w.gate
}

// wakeLocked wakes every waiting acquirer. Must hold w.mu.
func (w *Window) wakeLocked() {
	if w.gate != nil {
		close(w.gate)
		w.gate = nil
	}
}

// Acquire takes one credit, blocking through the clock until one frees.
// Under a virtual clock the caller must be an actor (the clock's creator,
// a scheduler, or a clock.Go goroutine).
func (w *Window) Acquire() error { return w.acquire(nil, 1, true) }

// acquire takes n credits atomically (n is clamped as by Clamp). With wait
// it parks through the clock until they are all free, bounded by ctx when
// that is non-nil: cancellation is checked between credit wakeups, and
// under a wall clock the wait itself also unblocks on ctx expiry. (Under a
// virtual clock a context deadline is wall time and therefore foreign to
// the deterministic timeline.) Without wait it returns ErrWindowFull
// instead of parking. ErrWindowClosed after Close, either way.
func (w *Window) acquire(ctx context.Context, n int, wait bool) error {
	if w == nil {
		return nil
	}
	n = w.Clamp(n)
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return ErrWindowClosed
		}
		if w.tryAcquireNLocked(n) {
			w.mu.Unlock()
			return nil
		}
		if !wait {
			w.rejected++
			w.mu.Unlock()
			return ErrWindowFull
		}
		gate := w.waitChLocked()
		w.mu.Unlock()
		WaitGate(w.clk, gate, ctx)
	}
}

// WaitGate blocks through clk until gate closes or ctx is done (a nil ctx
// waits on the gate alone). Ctx cancellation is merged into one channel
// the clock can wait on; the merge goroutine touches no simulation state,
// so it is exempt from the virtual clock's actor regime. Shared by
// Window.acquire and the stack manager's mailbox-admission wait.
func WaitGate(clk clock.Clock, gate <-chan struct{}, ctx context.Context) {
	clk = clock.Or(clk)
	if ctx == nil {
		clk.Wait(gate)
		return
	}
	if clk == clock.Wall() {
		// Wall-clock Wait is a plain receive: select directly instead of
		// paying a merge goroutine per wakeup of a contended gate.
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return
	}
	merged := make(chan struct{})
	go func() {
		defer close(merged)
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}()
	clk.Wait(merged)
}

// Release returns n credits. Releasing more than is in use clamps to
// zero — that would indicate an accounting bug upstream, and the clamp
// keeps the window usable while the released counter exposes the
// discrepancy (released > acquired) to tests.
func (w *Window) Release(n int) {
	if w == nil || n <= 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.released += uint64(n)
	if n > w.used {
		n = w.used
	}
	w.used -= n
	w.wakeLocked()
}

// Close fails every pending and future acquire with ErrWindowClosed.
// Credits still in flight are abandoned (the group they metered is gone).
func (w *Window) Close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	w.wakeLocked()
}

// Capacity returns the credit capacity (0 for the disabled window).
func (w *Window) Capacity() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cap
}

// InUse returns the credits currently held.
func (w *Window) InUse() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.used
}

// Stats is a snapshot of the window's monotone counters.
type Stats struct {
	// Capacity is the configured credit capacity.
	Capacity int
	// InUse is the credits held at snapshot time.
	InUse int
	// HighWater is the maximum simultaneous credits ever held.
	HighWater int
	// Acquired and Released count credit movements; at quiescence
	// Acquired == Released and InUse == 0.
	Acquired, Released uint64
	// Rejected counts non-waiting acquires that returned ErrWindowFull.
	Rejected uint64
}

// Stats snapshots the window counters.
func (w *Window) Stats() Stats {
	if w == nil {
		return Stats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Capacity:  w.cap,
		InUse:     w.used,
		HighWater: w.highWater,
		Acquired:  w.acquired,
		Released:  w.released,
		Rejected:  w.rejected,
	}
}

// Credit is what one accepted cast holds of a group's send windows: Msgs
// message credits (one per cast) and Bytes byte credits (its clamped payload
// size; 0 with byte windowing off). The zero value holds nothing. It is
// stamped on the cast once, at acquisition, so every release — stability,
// view install, teardown, a failed insert — moves exactly what was acquired.
type Credit struct{ Msgs, Bytes int }

// Releaser is the sink held credits are returned to. The reliable layer
// sees its group's Windows only as this.
type Releaser interface{ Release(Credit) }

// Windows pairs a group's message window with its byte window (nil when
// byte windowing is off).
type Windows struct{ Msgs, Bytes *Window }

// Acquire takes the credit for one cast of payloadLen bytes: waiting as
// Window.acquire does (parked through the clock and bounded by a non-nil
// ctx with wait set, ErrWindowFull instead without). The order is fixed —
// message credit, then byte credits — so two concurrent senders can never
// deadlock across the pair, and a failure on the second gives the first
// back.
func (p Windows) Acquire(ctx context.Context, wait bool, payloadLen int) (Credit, error) {
	if err := p.Msgs.acquire(ctx, 1, wait); err != nil {
		return Credit{}, err
	}
	c := Credit{Msgs: 1}
	if p.Bytes != nil {
		c.Bytes = p.Bytes.Clamp(payloadLen)
		if err := p.Bytes.acquire(ctx, c.Bytes, wait); err != nil {
			p.Msgs.Release(1)
			return Credit{}, err
		}
	}
	return c, nil
}

// Release returns c to the windows it was acquired from.
func (p Windows) Release(c Credit) {
	p.Msgs.Release(c.Msgs)
	p.Bytes.Release(c.Bytes)
}

// Close closes both windows.
func (p Windows) Close() {
	p.Msgs.Close()
	p.Bytes.Close()
}
