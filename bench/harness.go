package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"morpheus"
	"morpheus/internal/appia"
	"morpheus/internal/chaos/invariants"
	"morpheus/internal/clock"
	"morpheus/internal/core"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
	"morpheus/internal/netio/udpnet"
	"morpheus/internal/vnet"
)

// Payload layout. Every cast carries its identity and its send instant, so
// a receiver can check order and time the delivery without shared state:
//
//	[0:8]   seq    global cast index; group = seq % groups, index within
//	               the group = seq / groups
//	[8:16]  stamp  send instant, ns on the cluster's clock since its epoch
//	[16:20] magic  lets the tracing endpoint find casts inside wire frames
//	[20:]   filler seeded bytes, identical in every cast of a run
const (
	hdrLen   = 20
	magic    = 0xCA57BE4C
	sendWin  = morpheus.DefaultSendWindow
	suspect  = 5 * time.Second  // control-group failure detection: scheduling hiccups under flood must not evict a member
	drainMax = 10 * time.Second // anything undelivered after this is a failure
	// slice is the unit casts_per_s is measured in: the window's throughput is
	// the median of its slices, so a stall or a noisy neighbour costs one
	// slice, not the run.
	slice = 100 * time.Millisecond
	// rateCap sizes the per-receiver sample buffers and the trace arrays
	// (casts per second of window); casts beyond it are still checked and
	// counted, only not timed.
	rateCap = 300_000
)

// timebase stamps events on a cluster's clock: the wall clock, or the
// virtual clock of a vnet world.
type timebase struct {
	clk   clock.Clock
	epoch time.Time
}

func (t timebase) now() int64 { return int64(t.clk.Since(t.epoch)) }

// wall is the process-wide wall timebase: window deadlines and throughput
// are wall time on every substrate.
var wall = timebase{clk: clock.Wall(), epoch: clock.Wall().Now()}

type substrate int

const (
	subLoop substrate = iota // loopnet: synchronous in-process delivery
	subUDP                   // udpnet: real sockets on 127.0.0.1
	subVirt                  // vnet on a virtual clock: 2 ms ± 1 ms, 5 % loss
)

// spec describes the system under test of one workload.
type spec struct {
	net     substrate
	members int
	groups  int  // groups hosted per node; 1 is the default group
	size    int  // payload bytes
	flip    bool // install the plain<->mecho flip policy (reconfig_loop)
	seed    int64
	casts   int // most casts the cluster will ever be sent (sizes the oracle's bitmaps)
}

// receiver is one member's delivery-side recorder and oracle. Its OnMessage
// path takes no lock and allocates nothing: order state is per group (a
// group's casts are delivered by one scheduler at a time), everything shared
// is atomic.
type receiver struct {
	c   *cluster
	idx int // member index; 0 is the sender

	// Per group gi: seen is a bitmap over within-group cast indexes at
	// [gi*perGroup, (gi+1)*perGroup), next the index after the highest
	// delivered, count the distinct casts delivered.
	seen     []uint64
	perGroup uint64
	next     []uint64
	count    []uint64

	n      atomic.Int64 // deliveries this phase
	last   atomic.Int64 // cluster-clock instant of the latest delivery
	wlast  atomic.Int64 // wall instant of the latest delivery
	gapMax atomic.Int64 // longest interval between consecutive deliveries this phase
	bad    atomic.Int64 // corrupt, leaked or duplicated deliveries, ever
	late   atomic.Int64 // deliveries overtaken by a later cast of the same origin, ever

	samples []uint32 // delivery latency in ns, in delivery order (untimed past cap)
}

func newReceiver(c *cluster, idx int, casts int) *receiver {
	per := uint64(casts/c.groups + 64)
	return &receiver{
		c: c, idx: idx, perGroup: per,
		seen:  make([]uint64, (per*uint64(c.groups)+63)/64),
		next:  make([]uint64, c.groups),
		count: make([]uint64, c.groups),
	}
}

// deliver is the OnMessage body of member r.idx for group gi: check the
// cast (intact, this group's, never seen, in order), then time it.
func (r *receiver) deliver(gi int, p []byte) {
	c := r.c
	now := c.tb.now()
	if len(p) != c.size || !bytes.Equal(p[16:], c.template[16:]) {
		r.bad.Add(1)
		return
	}
	seq := binary.LittleEndian.Uint64(p)
	g := uint64(c.groups)
	i := seq / g
	if int(seq%g) != gi || i >= r.perGroup {
		r.bad.Add(1)
		return
	}
	bit := uint64(gi)*r.perGroup + i
	if r.seen[bit/64]&(1<<(bit%64)) != 0 {
		r.bad.Add(1)
		return
	}
	r.seen[bit/64] |= 1 << (bit % 64)
	r.count[gi]++
	if i < r.next[gi] {
		r.late.Add(1)
	} else {
		r.next[gi] = i + 1
	}
	if r.idx == 0 {
		return // the sender's own copy is checked, not timed
	}
	lat := now - int64(binary.LittleEndian.Uint64(p[8:]))
	n := r.n.Add(1)
	if prev := r.last.Swap(now); n > 1 && now-prev > r.gapMax.Load() {
		r.gapMax.Store(now - prev)
	}
	if c.virt != nil {
		r.wlast.Store(wall.now())
	}
	switch {
	case !c.recording:
	case c.tr != nil && c.tr.on:
		c.tr.delivered(seq, r.idx, lat)
	case int(n) <= len(r.samples):
		r.samples[n-1] = sat32(lat)
	}
	if c.pong != nil {
		c.pong <- struct{}{}
	}
}

// sat32 stores a non-negative ns interval in 32 bits, saturating at 4.29 s.
func sat32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ns)
}

// cluster is a running system under test: members 1..n in one process, one
// sender (member 1), every other member a receiver.
type cluster struct {
	spec
	tb       timebase
	virt     *clock.Virtual // nil on wall substrates
	closeNet func()
	nodes    []*morpheus.Node
	grp      [][]*morpheus.Group // [member][group]
	recv     []*receiver
	template []byte
	tr       *tracer // nil when untraced

	seq       uint64 // next global cast index; sender only
	badSeen   int64  // oracle counts already charged to earlier phases
	lateSeen  int64
	recording bool // phase-scoped: time deliveries
	pong      chan struct{}

	ready  chan struct{}
	nready atomic.Int32

	want   atomic.Value // string: the flip policy's target configuration
	mu     sync.Mutex
	took   []time.Duration // OnReconfigured durations at the coordinator
	setupD time.Duration
}

// offlineCluster has recorders but no system under it: what prices and tests
// the harness's own delivery path.
func offlineCluster(casts int) *cluster {
	c := &cluster{spec: spec{members: 2, groups: 1, size: small}, tb: wall, recording: true}
	c.template = make([]byte, small)
	c.recv = []*receiver{newReceiver(c, 0, casts), newReceiver(c, 1, casts)}
	return c
}

// flipPolicy steers the group toward the configuration the bench last
// asked for, through the normal coordinator/Prepare/Ack path (the chaos
// plane's pattern). Every node shares the target; only the coordinator's
// evaluation acts.
type flipPolicy struct{ want *atomic.Value }

func (flipPolicy) Name() string { return "bench-flip" }

func (p flipPolicy) Evaluate(in core.PolicyInput) *core.Decision {
	want, _ := p.want.Load().(string)
	if want == "" || want == in.Current {
		return nil
	}
	doc := core.PlainConfig()
	if want != core.PlainConfigName {
		doc = core.MechoConfig(1)
	}
	return &core.Decision{ConfigName: want, Doc: doc, Members: in.View.Members, Reason: "bench flip"}
}

// newCluster brings the system up and returns once every member of every
// group has reported the full view: setupD is start → that instant.
func newCluster(s spec, tr *tracer) (*cluster, error) {
	c := &cluster{spec: s, tb: wall, tr: tr, ready: make(chan struct{})}
	c.want.Store("")
	c.template = make([]byte, s.size)
	rand.New(rand.NewSource(s.seed)).Read(c.template[hdrLen:])
	binary.LittleEndian.PutUint32(c.template[16:], magic)
	c.recv = make([]*receiver, s.members)
	for i := range c.recv {
		c.recv[i] = newReceiver(c, i, s.casts)
	}
	// The recorders above are the harness's; set-up time is the system's.
	t0 := wall.now()

	members := make([]morpheus.NodeID, s.members)
	for i := range members {
		members[i] = morpheus.NodeID(i + 1)
	}
	var nw netio.Network
	switch s.net {
	case subLoop:
		nw = loopnet.New()
	case subUDP:
		peers := make(map[netio.NodeID]string, s.members)
		for _, id := range members {
			peers[id] = "127.0.0.1:0"
		}
		u, err := udpnet.New(udpnet.Config{Peers: peers})
		if err != nil {
			return nil, err
		}
		nw = u
	case subVirt:
		c.virt = clock.NewVirtual()
		c.tb = timebase{clk: c.virt, epoch: clock.VirtualBase}
		w := vnet.NewWorldWithClock(s.seed, c.virt)
		w.AddSegment(vnet.SegmentConfig{Name: "lan", Latency: 2 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.05})
		nw = w
	}
	if tr != nil {
		tr.tb = c.tb
	}
	c.closeNet = func() {
		_ = nw.Close()
		if c.virt != nil {
			c.virt.Stop()
		}
	}

	// Every endpoint exists before any node starts: a udpnet peer that has
	// not attached yet is unreachable, and the first heartbeats would fail.
	eps := make([]netio.Endpoint, s.members)
	for i, id := range members {
		ep, err := nw.Attach(netio.EndpointConfig{ID: id, Kind: netio.Fixed, Segments: []string{"lan"}})
		if err != nil {
			c.close()
			return nil, err
		}
		if tr != nil {
			ep = tr.wrap(ep, i)
		}
		eps[i] = ep
	}

	fullView := func(v morpheus.View) {
		// Every stack announces its bootstrap view once when it deploys, so the
		// first members×groups full views are one per (member, group); the
		// views a reconfiguration announces later only count past the total.
		if len(v.Members) == s.members && int(c.nready.Add(1)) == s.members*s.groups {
			close(c.ready)
		}
	}
	c.grp = make([][]*morpheus.Group, s.members)
	for i, r := range c.recv {
		cfg := morpheus.Config{
			Endpoint:       eps[i],
			Clock:          c.tb.clk,
			Members:        members,
			NoDefaultGroup: s.groups > 1,
			SuspectAfter:   suspect,
			OnMessage:      func(_ morpheus.NodeID, p []byte) { r.deliver(0, p) },
			OnViewChange:   fullView,
		}
		if s.flip {
			cfg.Policies = []morpheus.Policy{flipPolicy{want: &c.want}}
			cfg.EvalInterval = 10 * time.Millisecond
			cfg.OnReconfigured = func(_ uint64, _ string, took time.Duration) {
				c.mu.Lock()
				c.took = append(c.took, took)
				c.mu.Unlock()
			}
		}
		nd, err := morpheus.Start(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start member %d: %w", i+1, err)
		}
		c.nodes = append(c.nodes, nd)
	}
	// Groups are joined only once every node is up: a node that spent its
	// first second joining 256 groups alone would be suspected by nobody,
	// but its peers' casts to it would be lost to a membership repair.
	for i, nd := range c.nodes {
		if s.groups == 1 {
			c.grp[i] = []*morpheus.Group{nd.Group(morpheus.DefaultGroup)}
			continue
		}
		r := c.recv[i]
		c.grp[i] = make([]*morpheus.Group, s.groups)
		for gi := range c.grp[i] {
			g, err := nd.Join(fmt.Sprintf("g%03d", gi), morpheus.GroupConfig{
				Members:      members,
				OnMessage:    func(_ morpheus.NodeID, p []byte) { r.deliver(gi, p) },
				OnViewChange: fullView,
			})
			if err != nil {
				c.close()
				return nil, fmt.Errorf("member %d join group %d: %w", i+1, gi, err)
			}
			c.grp[i][gi] = g
		}
	}
	if !c.tb.clk.WaitTimeout(c.ready, 30*time.Second) {
		c.close()
		return nil, fmt.Errorf("only %d of %d (member, group) views became full", c.nready.Load(), s.members*s.groups)
	}
	c.setupD = time.Duration(wall.now() - t0)
	return c, nil
}

func (c *cluster) close() {
	for _, nd := range c.nodes {
		_ = nd.Close()
	}
	c.closeNet()
}

// snapshot is the process- and cluster-wide counter state at a phase edge.
type snapshot struct {
	mallocs, gcPauseNs, heap uint64
	cpuNs                    int64
	txData, txCtl            uint64 // frames transmitted by all members
	wireBytes, datagrams     uint64
	txSys, rxSys             uint64
	pool                     appia.PoolStats // summed over members
}

func (c *cluster) snapshot() snapshot {
	var s snapshot
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.gcPauseNs, s.heap = ms.Mallocs, ms.PauseTotalNs, ms.HeapAlloc
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	for _, nd := range c.nodes {
		k := nd.Endpoint().Counters()
		s.txData += k.Tx[morpheus.ClassData].Msgs
		s.txCtl += k.TotalTx() - k.Tx[morpheus.ClassData].Msgs
		s.wireBytes += k.TxWireBytes
		s.datagrams += k.TxDatagrams
		s.txSys += k.TxSyscalls
		s.rxSys += k.RxSyscalls
		p := nd.PoolStats()
		s.pool.Batches += p.Batches
		s.pool.Steals += p.Steals
		s.pool.Parks += p.Parks
	}
	return s
}

// phase is one stretch of traffic: warm-up, a measured window, a ladder
// rung. It ends when dur has elapsed on the wall clock or casts were sent,
// whichever is set.
type phase struct {
	dur    time.Duration
	casts  int
	ping   bool          // one outstanding cast instead of a flood
	record bool          // time deliveries (off for warm-up)
	trace  bool          // record boundary spans (needs a tracer)
	flip   time.Duration // >0: toggle the configuration this often while sending
}

// phaseOut is what a phase measured. Times are wall ns unless named clk.
type phaseOut struct {
	sent, failed  int
	wallNs, clkNs int64     // window open → last delivery
	sliceRates    []float64 // complete casts per wall second, one per slice of the sending window
	before, after snapshot
	sendNs        []uint32 // per-cast time inside Send (traced phases only)
	sendTotalNs   int64
	stallNs       int64 // longest delivery gap at the last member
	overtaken     int   // deliveries that arrived behind a later cast of their origin
	retx          int64 // casts retransmitted (traced phases only)
	inUseMean     float64
	bufferedMax   int
	flow          morpheus.FlowStats // sender, group 0, after settling
	mailboxMax    int
	violations    []string
}

// sentIn is how many casts group gi has been sent so far.
func (c *cluster) sentIn(gi int) uint64 {
	g := uint64(c.groups)
	return (c.seq + g - 1 - uint64(gi)) / g
}

// run executes one phase: send, drain, settle, check.
func (c *cluster) run(p phase) phaseOut {
	var out phaseOut
	for _, r := range c.recv {
		r.n.Store(0)
		r.gapMax.Store(0)
	}
	c.recording = p.record
	c.pong = nil
	if p.ping {
		c.pong = make(chan struct{}, c.members)
	}
	tracing := p.trace && c.tr != nil
	if c.tr != nil {
		c.tr.on = tracing
	}
	if tracing {
		c.tr.begin(c.seq)
		out.sendNs = make([]uint32, 0, len(c.tr.send))
	}
	clk := c.tb.clk
	stop := make(chan struct{})
	var side sync.WaitGroup
	if p.flip > 0 {
		side.Add(1)
		clk.Go(func() { defer side.Done(); c.flipper(p.flip, stop) })
	}
	var smp sampler
	if tracing {
		side.Add(1)
		clk.Go(func() { defer side.Done(); smp.run(c, stop) })
	}

	out.before = c.snapshot()
	w0, c0 := wall.now(), c.tb.now()
	done := make(chan struct{})
	clk.Go(func() { defer close(done); c.send(p, &out, w0) })
	clk.Wait(done)
	close(stop)
	waitActors(clk, &side)
	if p.flip > 0 && !c.reconfigured() {
		out.violations = append(out.violations, "the last reconfiguration never settled on every member")
	}
	c.drain(&out)
	out.after = c.snapshot()
	out.clkNs = c.lastDelivery(false) - c0
	out.wallNs = c.lastDelivery(true) - w0
	out.stallNs = c.recv[c.members-1].gapMax.Load()
	out.inUseMean, out.bufferedMax = smp.mean(), smp.buffered
	if tracing {
		out.retx = c.tr.retx.Load()
	}
	c.settle(&out)
	c.recording = false
	return out
}

// waitActors waits for side actors through the clock, so that on a virtual
// clock the waiter parks instead of holding the run token.
func waitActors(clk clock.Clock, wg *sync.WaitGroup) {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	clk.Wait(ch)
}

// send is the sender actor: member 1, one goroutine, closed loop.
func (c *cluster) send(p phase, out *phaseOut, w0 int64) {
	buf := append([]byte(nil), c.template...)
	groups := c.grp[0]
	deadline := w0 + int64(p.dur)
	traced := out.sendNs != nil
	out.sliceRates = make([]float64, 0, p.dur/slice+1)
	sliceT, sliceDone := w0, int64(0)
	for {
		now := c.tb.now()
		wnow := now
		if c.virt != nil {
			wnow = wall.now()
		}
		if wnow-sliceT >= int64(slice) {
			done := c.completed()
			out.sliceRates = append(out.sliceRates, float64(done-sliceDone)/(float64(wnow-sliceT)/1e9))
			sliceT, sliceDone = wnow, done
		}
		if (p.casts > 0 && out.sent >= p.casts) || (p.casts == 0 && wnow >= deadline) {
			return
		}
		binary.LittleEndian.PutUint64(buf, c.seq)
		binary.LittleEndian.PutUint64(buf[8:], uint64(now))
		if traced {
			c.tr.sent(c.seq, now)
		}
		err := groups[c.seq%uint64(c.groups)].Send(buf)
		if traced {
			d := c.tb.now() - now
			out.sendTotalNs += d
			if len(out.sendNs) < cap(out.sendNs) {
				out.sendNs = append(out.sendNs, sat32(d))
			}
		}
		if err != nil {
			out.failed++
			out.violations = append(out.violations, fmt.Sprintf("send of cast %d: %v", c.seq, err))
			return
		}
		c.seq++
		out.sent++
		if p.ping {
			for i := 1; i < c.members; i++ {
				select {
				case <-c.pong:
				case <-wall.clk.After(drainMax):
					out.violations = append(out.violations, fmt.Sprintf("ping cast %d not delivered everywhere within %v", c.seq-1, drainMax))
					return
				}
			}
		}
	}
}

// completed is how many casts of the phase every remote member has delivered.
func (c *cluster) completed() int64 {
	done := c.recv[1].n.Load()
	for _, r := range c.recv[2:] {
		done = min(done, r.n.Load())
	}
	return done
}

// flipper toggles the target configuration every period until stopped; the
// first flip lands at a seeded offset into the period.
func (c *cluster) flipper(every time.Duration, stop <-chan struct{}) {
	clk := c.tb.clk
	first := time.Duration(rand.New(rand.NewSource(c.seed)).Int63n(int64(every)))
	if clk.WaitTimeout(stop, first) {
		return
	}
	for {
		c.toggle()
		if clk.WaitTimeout(stop, every) {
			return
		}
	}
}

func (c *cluster) toggle() {
	if cur, _ := c.want.Load().(string); cur == core.MechoConfigName(1) {
		c.want.Store(core.PlainConfigName)
	} else {
		c.want.Store(core.MechoConfigName(1))
	}
}

// reconfigured waits until every member runs the target configuration at
// one epoch.
func (c *cluster) reconfigured() bool {
	want, _ := c.want.Load().(string)
	if want == "" {
		return true
	}
	deadline := c.tb.now() + int64(drainMax)
	for c.tb.now() < deadline {
		same := true
		for _, g := range c.grp {
			if g[0].ConfigName() != want || g[0].Epoch() != c.grp[0][0].Epoch() {
				same = false
			}
		}
		if same {
			return true
		}
		c.tb.clk.Sleep(time.Millisecond)
	}
	return false
}

// drain waits until every remote member has delivered every cast of the
// phase; what is still missing after drainMax has failed.
func (c *cluster) drain(out *phaseOut) {
	deadline := c.tb.now() + int64(drainMax)
	for {
		missing := 0
		for _, r := range c.recv[1:] {
			if m := out.sent - int(r.n.Load()); m > missing {
				missing = m
			}
		}
		if missing == 0 {
			return
		}
		if c.tb.now() > deadline {
			out.failed += missing
			out.violations = append(out.violations, fmt.Sprintf("%d casts undelivered %v after the last send", missing, drainMax))
			return
		}
		c.tb.clk.Sleep(200 * time.Microsecond)
	}
}

// lastDelivery is the instant the phase's last delivery happened anywhere.
func (c *cluster) lastDelivery(onWall bool) int64 {
	var t int64
	for _, r := range c.recv[1:] {
		v := r.last.Load()
		if onWall && c.virt != nil {
			v = r.wlast.Load()
		}
		t = max(t, v)
	}
	return t
}

// settle waits for the sender's credits to come home, then runs the oracle:
// exactly-once per-origin FIFO gap-free complete delivery at every member,
// exact credit accounting and bounded retention at quiescence
// (invariants.CheckBounded), and membership untouched by repairs.
func (c *cluster) settle(out *phaseOut) {
	deadline := c.tb.now() + int64(drainMax)
	for c.tb.now() < deadline {
		idle := true
		for _, g := range c.grp[0] {
			if fs := g.FlowStats(); fs.Window.InUse != 0 || fs.BufferedSends != 0 {
				idle = false
				break
			}
		}
		if idle {
			break
		}
		c.tb.clk.Sleep(time.Millisecond)
	}
	caps := invariants.CapsFor(sendWin, c.members)
	var bad, late int64
	for i, r := range c.recv {
		bad += r.bad.Load()
		late += r.late.Load()
		for gi, g := range c.grp[i] {
			label := fmt.Sprintf("member %d group %d", i+1, gi)
			if got, want := r.count[gi], c.sentIn(gi); got != want {
				out.violations = append(out.violations, fmt.Sprintf("%s: delivered %d distinct casts, %d were sent", label, got, want))
			}
			fs := g.FlowStats()
			out.violations = append(out.violations, caps.CheckBounded(invariants.FlowRow{
				Label:            label,
				WindowHighWater:  fs.Window.HighWater,
				WindowInUse:      fs.Window.InUse,
				Acquired:         fs.Window.Acquired,
				Released:         fs.Window.Released,
				MailboxHighWater: fs.MailboxHighWater,
				NakSentHW:        fs.Nak.SentHighWater,
				NakHistoryHW:     fs.Nak.HistoryHighWater,
				NakBufferHW:      fs.Nak.BufferHighWater,
				NakEvicted:       fs.Nak.Evicted,
				BufferedSends:    fs.BufferedSends,
			})...)
			out.mailboxMax = max(out.mailboxMax, fs.MailboxHighWater)
			if vm := g.Manager().ViewMembers(); len(vm) != c.members {
				out.violations = append(out.violations, fmt.Sprintf("%s: view shrank to %v (a membership repair ran)", label, vm))
			}
		}
	}
	if bad > c.badSeen {
		out.failed += int(bad - c.badSeen)
		out.violations = append(out.violations, fmt.Sprintf("%d corrupt, leaked or duplicated deliveries", bad-c.badSeen))
	}
	out.overtaken = int(late - c.lateSeen)
	if out.overtaken > 0 && !c.flip {
		out.failed += out.overtaken
		out.violations = append(out.violations, fmt.Sprintf("%d deliveries overtaken by a later cast of the same origin", out.overtaken))
	}
	c.badSeen, c.lateSeen = bad, late
	out.flow = c.grp[0][0].FlowStats()
}

// sampler polls the sender's windows every 10 ms of a traced phase: mean
// credits in use (Little's law turns it into credit-hold time) and the
// resubmit buffer's high-water mark.
type sampler struct {
	inUse, n int64
	buffered int
}

func (s *sampler) run(c *cluster, stop <-chan struct{}) {
	for !c.tb.clk.WaitTimeout(stop, 10*time.Millisecond) {
		for _, g := range c.grp[0] {
			fs := g.FlowStats()
			s.inUse += int64(fs.Window.InUse)
			s.buffered = max(s.buffered, fs.BufferedSends)
		}
		s.n++
	}
}

func (s *sampler) mean() float64 { return ratio(float64(s.inUse), float64(s.n)) }
