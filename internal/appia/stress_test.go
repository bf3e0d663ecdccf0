package appia

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSchedulerConcurrentInsertStress pounds a channel from many producer
// goroutines; every event must be processed exactly once and in a
// consistent per-producer order.
func TestSchedulerConcurrentInsertStress(t *testing.T) {
	forEachExecutor(t, testConcurrentInsertStress)
}

func testConcurrentInsertStress(t *testing.T, newSched func() *Scheduler) {
	const producers = 8
	const perProducer = 500

	type stressEv struct {
		EventBase
		producer int
		seq      int
	}
	var mu sync.Mutex
	lastSeen := make([]int, producers)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	var total atomic.Int64

	l := layerFunc{name: "sink", accepts: []EventType{T[*stressEv]()}, fn: func(ch *Channel, ev Event) {
		e, ok := ev.(*stressEv)
		if !ok {
			ch.Forward(ev)
			return
		}
		mu.Lock()
		if e.seq != lastSeen[e.producer]+1 {
			t.Errorf("producer %d: seq %d after %d", e.producer, e.seq, lastSeen[e.producer])
		}
		lastSeen[e.producer] = e.seq
		mu.Unlock()
		total.Add(1)
	}}
	q, err := NewQoS("q", l)
	if err != nil {
		t.Fatal(err)
	}
	sched := newSched()
	defer sched.Close()
	ch := q.CreateChannel("c", sched)
	if err := ch.Start(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := ch.Insert(&stressEv{producer: p, seq: i}, Up); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sched.Flush()
	if got := total.Load(); got != producers*perProducer {
		t.Fatalf("processed %d events, want %d", got, producers*perProducer)
	}
}

// TestTimerStormUnderClose arms many timers and closes the scheduler; no
// panic, no goroutine leak (the -race runner catches misuse).
func TestTimerStormUnderClose(t *testing.T) { forEachExecutor(t, testTimerStormUnderClose) }

func testTimerStormUnderClose(t *testing.T, newSched func() *Scheduler) {
	sched := newSched()
	var fired atomic.Int64
	for i := 0; i < 200; i++ {
		d := time.Duration(i%10+1) * time.Millisecond
		sched.After(d, func() { fired.Add(1) })
	}
	time.Sleep(5 * time.Millisecond)
	sched.Close()
	n := fired.Load()
	time.Sleep(20 * time.Millisecond)
	if fired.Load() != n {
		t.Fatal("timers fired after Close")
	}
}

// TestRouteCacheConsistency exercises many event types through the same
// channel to populate the route cache from the scheduler goroutine.
func TestRouteCacheConsistency(t *testing.T) {
	type evA struct{ EventBase }
	type evB struct{ SendableEvent }
	type evC struct{ baseEv }

	var got atomic.Int64
	l := layerFunc{name: "l", accepts: []EventType{TIface[Sendable]()}, fn: func(ch *Channel, ev Event) {
		if _, ok := ev.(*ChannelInit); ok {
			ch.Forward(ev) // lifecycle events visit everyone; don't count
			return
		}
		got.Add(1)
	}}
	q, err := NewQoS("q", l)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()
	ch := q.CreateChannel("c", sched)
	if err := ch.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := ch.Insert(&evA{}, Up); err != nil { // not Sendable: bypasses the layer
			t.Fatal(err)
		}
		if err := ch.Insert(&evB{}, Up); err != nil {
			t.Fatal(err)
		}
		if err := ch.Insert(&evC{}, Up); err != nil {
			t.Fatal(err)
		}
	}
	sched.Flush()
	if got.Load() != 100 { // evB and evC are Sendable; evA is not
		t.Fatalf("layer saw %d events, want 100", got.Load())
	}
}

// TestDeepBacklogDrainsLinearly regression-tests the scheduler's
// amortised-O(1) deque: a producer enqueues a deep backlog before the
// consumer runs; draining must take linear, not quadratic, time (the
// quadratic head-copy variant took minutes at this depth).
func TestDeepBacklogDrainsLinearly(t *testing.T) {
	const depth = 200_000
	var processed atomic.Int64
	l := layerFunc{name: "sink", accepts: []EventType{T[*baseEv]()}, fn: func(ch *Channel, ev Event) {
		processed.Add(1)
	}}
	q, err := NewQoS("q", l)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()
	ch := q.CreateChannel("c", sched)
	if err := ch.Start(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < depth; i++ {
		if err := ch.Insert(&baseEv{}, Up); err != nil {
			t.Fatal(err)
		}
	}
	sched.Flush()
	if got := processed.Load(); got != depth+1 { // +1 for ChannelInit
		t.Fatalf("processed %d, want %d", got, depth+1)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("draining %d events took %v; the deque has gone quadratic", depth, took)
	}
}

// BenchmarkChannelHopThroughput measures raw event hops per second through
// a full channel (event allocation, routing, dispatch); the mailbox alone
// is measured by BenchmarkSchedulerThroughput.
func BenchmarkChannelHopThroughput(b *testing.B) {
	var processed atomic.Int64
	l := layerFunc{name: "sink", accepts: []EventType{T[*baseEv]()}, fn: func(ch *Channel, ev Event) {
		processed.Add(1)
	}}
	q, err := NewQoS("q", l)
	if err != nil {
		b.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()
	ch := q.CreateChannel("c", sched)
	if err := ch.Start(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Insert(&baseEv{}, Up); err != nil {
			b.Fatal(err)
		}
	}
	sched.Flush()
}

// TestMessageGrowthReallocations pushes far beyond the initial headroom.
func TestMessageGrowthReallocations(t *testing.T) {
	m := NewMessage(make([]byte, 10))
	for i := 0; i < 1000; i++ {
		m.PushUint64(uint64(i))
	}
	for i := 999; i >= 0; i-- {
		v, err := m.PopUint64()
		if err != nil || v != uint64(i) {
			t.Fatalf("pop %d: %d, %v", i, v, err)
		}
	}
	if m.Len() != 10 {
		t.Fatalf("payload length after storm = %d", m.Len())
	}
}
