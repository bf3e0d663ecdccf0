package chaos

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"morpheus"
	"morpheus/internal/chaos/invariants"
	"morpheus/internal/clock"
	"morpheus/internal/core"
	"morpheus/internal/vnet"
)

// Options parameterises a chaos run. The zero value is the standard E12
// configuration.
type Options struct {
	// Profile bounds the schedule generator (zero value: defaults).
	Profile Profile
	// SendWindow is every long-lived group's send window (default 32 —
	// small enough that bursts exercise TrySend backpressure).
	SendWindow int
	// Messages is the baseline flood length per member on the data group
	// (default 30, paced to span the fault horizon).
	Messages int
	// Caps, when non-nil, overrides the data group's derived bounds.
	// Tightening them below the real high-water marks is the sanctioned
	// way to prove the failure path: the run reports deterministic
	// violations, bit-identical on replay.
	Caps *invariants.Caps
	// ExtraGroups additionally hosts that many quiet groups on every node
	// (default 0 — the standard E12 traces are unchanged). The pool-scale
	// smoke: a large hosted population must not perturb the checked
	// groups' invariants, and crash-stop teardown then exercises pooled
	// scheduler Close at population scale.
	ExtraGroups int
	// Logf receives control-plane diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.SendWindow == 0 {
		o.SendWindow = 32
	}
	if o.Messages == 0 {
		o.Messages = 30
	}
}

// Result is one chaos run's harvest. Everything in it — the schedule, the
// injection log, the delivery digests, the flow snapshots and the
// violation list, all folded into Trace and Hash — is a pure function of
// the seed, so a failing seed replays its exact Result.
type Result struct {
	Seed     int64
	Schedule Schedule
	// Survivors is the control-live membership after the schedule drained
	// (everyone the schedule did not crash-stop).
	Survivors []NodeID
	// Crashed lists the crash-stopped nodes.
	Crashed []NodeID
	// Delivered is the total application casts delivered across survivors
	// on the long-lived groups.
	Delivered int
	// Rejected counts ErrWindowFull backpressure signals senders rode out.
	Rejected uint64
	// Violations is the flattened invariant-violation list (empty means
	// every invariant held).
	Violations []string
	// Trace is the canonical run transcript; Hash is its sha256 prefix.
	Trace string
	Hash  string
}

// auxGroup is the second long-lived group every run hosts (multi-group
// coverage: faults must not bleed invariants across groups).
const auxGroup = "aux"

// encodePayload tags a cast so deliveries are checkable: group for the
// isolation invariant, stream+index for exactly-once/FIFO/completeness
// (wire seqnums reset per epoch, so payload identity is the ground truth).
func encodePayload(group, stream string, idx int) []byte {
	return []byte(fmt.Sprintf("chaos|%s|%s|%d", group, stream, idx))
}

func decodePayload(p []byte) (group, stream string, idx int, ok bool) {
	parts := strings.Split(string(p), "|")
	if len(parts) != 4 || parts[0] != "chaos" {
		return "", "", 0, false
	}
	n, err := fmt.Sscanf(parts[3], "%d", &idx)
	if n != 1 || err != nil {
		return "", "", 0, false
	}
	return parts[1], parts[2], idx, true
}

// traceKey identifies one node's view of one group.
type traceKey struct {
	node  NodeID
	group string
}

// runner is the per-run state shared by the driver, the sender actors and
// the injector.
type runner struct {
	opts     Options
	sched    Schedule
	clk      *clock.Virtual
	world    *vnet.World
	start    time.Time
	members  []NodeID
	nodes    map[NodeID]*morpheus.Node
	crashed  map[NodeID]*atomic.Bool
	desired  atomic.Value // string: the flip policy's target config
	rejected atomic.Uint64

	mu       sync.Mutex
	traces   map[traceKey][]invariants.Delivery
	counts   map[traceKey]map[invariants.StreamKey]int
	accepted map[string]map[invariants.StreamKey]int // group → stream → casts
	leaked   int
	log      []string
	injDone  []<-chan struct{} // forked fault actors (bursts, churn waves)
}

func (r *runner) isCrashed(id NodeID) bool { return r.crashed[id].Load() }

func (r *runner) logf(format string, args ...any) {
	line := fmt.Sprintf("[+%-8s] %s", r.clk.Now().Sub(r.start).Round(time.Millisecond), fmt.Sprintf(format, args...))
	r.mu.Lock()
	r.log = append(r.log, line)
	r.mu.Unlock()
}

// recorder returns the OnCast hook for one node's membership of one group.
func (r *runner) recorder(node NodeID, groupName string) func(ev *morpheus.CastEvent) {
	key := traceKey{node: node, group: groupName}
	return func(ev *morpheus.CastEvent) {
		g, stream, idx, ok := decodePayload(ev.Msg.Bytes())
		r.mu.Lock()
		defer r.mu.Unlock()
		if !ok || g != groupName {
			r.leaked++
			return
		}
		d := invariants.Delivery{Origin: ev.Origin, Stream: stream, Index: idx}
		r.traces[key] = append(r.traces[key], d)
		m := r.counts[key]
		if m == nil {
			m = make(map[invariants.StreamKey]int)
			r.counts[key] = m
		}
		m[invariants.StreamKey{Origin: ev.Origin, Stream: stream}]++
	}
}

// recorderMsg is the recorder in OnMessage shape, for the default group
// (whose delivery hook is wired through Config at Start).
func (r *runner) recorderMsg(node NodeID, groupName string) func(from NodeID, payload []byte) {
	key := traceKey{node: node, group: groupName}
	return func(from NodeID, payload []byte) {
		g, stream, idx, ok := decodePayload(payload)
		r.mu.Lock()
		defer r.mu.Unlock()
		if !ok || g != groupName {
			r.leaked++
			return
		}
		d := invariants.Delivery{Origin: from, Stream: stream, Index: idx}
		r.traces[key] = append(r.traces[key], d)
		m := r.counts[key]
		if m == nil {
			m = make(map[invariants.StreamKey]int)
			r.counts[key] = m
		}
		m[invariants.StreamKey{Origin: from, Stream: stream}]++
	}
}

// accept records one accepted send.
func (r *runner) accept(group string, origin NodeID, stream string) {
	k := invariants.StreamKey{Origin: origin, Stream: stream}
	r.mu.Lock()
	m := r.accepted[group]
	if m == nil {
		m = make(map[invariants.StreamKey]int)
		r.accepted[group] = m
	}
	m[k]++
	r.mu.Unlock()
}

// deliveredCount reads one node's delivery count for a stream.
func (r *runner) deliveredCount(k traceKey, s invariants.StreamKey) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[k][s]
}

// acceptedFor builds the completeness ground truth for one node and group:
// surviving origins must be delivered exactly; a crashed origin's accepted
// count is unreachable (its tail may never have been transmitted), so the
// node's own delivered prefix stands in — the sequence scan still enforces
// exactly-once and gap-freedom over it.
func (r *runner) acceptedFor(node NodeID, group string) map[invariants.StreamKey]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[invariants.StreamKey]int, len(r.accepted[group]))
	for k, n := range r.accepted[group] {
		if r.crashed[k.Origin] != nil && r.crashed[k.Origin].Load() {
			out[k] = r.counts[traceKey{node: node, group: group}][k]
		} else {
			out[k] = n
		}
	}
	return out
}

// waitFor polls cond on the virtual timeline.
func (r *runner) waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := r.clk.Now().Add(timeout)
	for r.clk.Now().Before(deadline) {
		if cond() {
			return true
		}
		r.clk.Sleep(20 * time.Millisecond)
	}
	return false
}

// flipPolicy steers the data group toward the configuration the schedule
// last demanded, through the normal coordinator/Prepare/Ack path. All
// nodes share one desired pointer; only the coordinator's evaluation acts.
type flipPolicy struct {
	desired *atomic.Value
	relay   NodeID
}

func (flipPolicy) Name() string { return "chaos-flip" }

func (p flipPolicy) Evaluate(in core.PolicyInput) *core.Decision {
	want, _ := p.desired.Load().(string)
	if want == "" || want == in.Current {
		return nil
	}
	var doc *morpheus.Document
	if want == core.PlainConfigName {
		doc = core.PlainConfig()
	} else {
		doc = core.MechoConfig(p.relay)
	}
	return &core.Decision{ConfigName: want, Doc: doc, Members: in.View.Members, Reason: "chaos schedule"}
}

// Run executes one chaos run: generate the schedule from the seed, boot
// the multi-group topology on a virtual clock, arm every event on the
// clock heap, flood, drain, and check every runtime invariant. The
// returned error reports harness failures only (a node that failed to
// boot); invariant failures land in Result.Violations.
func Run(seed int64, opts Options) (Result, error) {
	opts.defaults()
	opts.Profile.defaults()
	sched := Generate(seed, opts.Profile)

	clk := clock.NewVirtual()
	defer clk.Stop()
	world := vnet.NewWorldWithClock(seed, clk)
	defer world.Close()
	world.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})
	world.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true})

	r := &runner{
		opts:     opts,
		sched:    sched,
		clk:      clk,
		world:    world,
		members:  opts.Profile.Members,
		nodes:    make(map[NodeID]*morpheus.Node, len(opts.Profile.Members)),
		crashed:  make(map[NodeID]*atomic.Bool, len(opts.Profile.Members)),
		traces:   make(map[traceKey][]invariants.Delivery),
		counts:   make(map[traceKey]map[invariants.StreamKey]int),
		accepted: make(map[string]map[invariants.StreamKey]int),
	}
	r.desired.Store("")
	for _, id := range r.members {
		r.crashed[id] = new(atomic.Bool)
	}
	flip := flipPolicy{desired: &r.desired, relay: opts.Profile.Anchor}

	defer func() {
		for _, nd := range r.nodes {
			_ = nd.Close()
		}
	}()
	for _, id := range r.members {
		kind, seg := morpheus.Fixed, "lan"
		if id == opts.Profile.Mobile {
			kind, seg = morpheus.Mobile, "wlan"
		}
		nd, err := morpheus.Start(morpheus.Config{
			World: world, ID: id, Kind: kind, Segments: []string{seg},
			Members:  r.members,
			Policies: []morpheus.Policy{flip},
			// The transient-fault bounds in Profile assume this detection
			// threshold: partitions and loss spikes stay well under it, so
			// only crash-stops are ever evicted.
			Heartbeat:       50 * time.Millisecond,
			SuspectAfter:    2 * time.Second,
			ContextInterval: 80 * time.Millisecond,
			EvalInterval:    100 * time.Millisecond,
			PublishOnChange: true,
			SendWindow:      opts.SendWindow,
			Logf:            opts.Logf,
			OnMessage:       r.recorderMsg(id, morpheus.DefaultGroup),
		})
		if err != nil {
			return Result{}, fmt.Errorf("chaos: start node %d: %w", id, err)
		}
		r.nodes[id] = nd
	}

	return r.execute()
}

// execute drives the armed run to quiescence and harvests it.
func (r *runner) execute() (Result, error) {
	opts := r.opts
	clk := r.clk
	r.start = clk.Now()

	// aux: the second long-lived group, non-adaptive, same membership.
	for _, id := range r.members {
		if _, err := r.nodes[id].Join(auxGroup, morpheus.GroupConfig{
			Members:    r.members,
			OnCast:     r.recorder(id, auxGroup),
			SendWindow: opts.SendWindow,
		}); err != nil {
			return Result{}, fmt.Errorf("chaos: node %d join %s: %w", id, auxGroup, err)
		}
	}

	// The extra hosted population (pool-scale smoke): joined everywhere,
	// never sent to. Joined before the schedule arms so the added joins —
	// like everything else — are a deterministic function of the seed.
	for i := 0; i < opts.ExtraGroups; i++ {
		name := fmt.Sprintf("x%04d", i)
		for _, id := range r.members {
			if _, err := r.nodes[id].Join(name, morpheus.GroupConfig{
				Members:    r.members,
				SendWindow: opts.SendWindow,
			}); err != nil {
				return Result{}, fmt.Errorf("chaos: node %d join %s: %w", id, name, err)
			}
		}
	}

	// Arm the schedule on the clock heap before any time passes.
	r.arm()

	// Baseline floods. Data group: every member, stream "m". Aux group:
	// one fixed node and the mobile, lighter and slower.
	sendHorizon := opts.Profile.Horizon + 30*time.Second
	var dones []<-chan struct{}
	for _, id := range r.members {
		dones = append(dones, r.sender(id, morpheus.DefaultGroup, "m", opts.Messages, 250*time.Millisecond, sendHorizon))
	}
	auxSenders := []NodeID{r.members[1], opts.Profile.Mobile}
	for _, id := range auxSenders {
		dones = append(dones, r.sender(id, auxGroup, "m", opts.Messages/2, 400*time.Millisecond, sendHorizon))
	}

	var violations []string
	for _, d := range dones {
		if !clk.WaitTimeout(d, sendHorizon+30*time.Second) {
			violations = append(violations, "liveness: a baseline sender never finished")
		}
	}

	// Injector barrier: let the last clock-heap event fire, then wait for
	// every forked fault actor (bursts, churn waves) — traces must be
	// frozen before they are hashed.
	var maxAt time.Duration
	for _, e := range r.sched.Events {
		if e.At > maxAt {
			maxAt = e.At
		}
	}
	if rem := r.start.Add(maxAt + 10*time.Millisecond).Sub(clk.Now()); rem > 0 {
		clk.Sleep(rem)
	}
	for _, d := range r.snapshotInjDone() {
		if !clk.WaitTimeout(d, 60*time.Second) {
			violations = append(violations, "liveness: a fault actor (burst/churn) never finished")
		}
	}

	// Survivor set: everyone the schedule did not crash-stop.
	var survivors, crashed []NodeID
	for _, id := range r.members {
		if r.isCrashed(id) {
			crashed = append(crashed, id)
		} else {
			survivors = append(survivors, id)
		}
	}

	// Crashed nodes must be evicted everywhere before completeness can
	// converge (membership repair is what releases their stalled credits).
	if len(crashed) > 0 {
		if !r.waitFor(30*time.Second, func() bool {
			for _, id := range survivors {
				for _, m := range r.nodes[id].Manager().Deployment().Members {
					if r.isCrashed(m) {
						return false
					}
				}
			}
			return true
		}) {
			violations = append(violations, "liveness: crashed nodes never evicted from the data view")
		}
	}

	// Completeness: every survivor delivers every cast a surviving sender
	// accepted, on both long-lived groups.
	complete := func() bool {
		for _, id := range survivors {
			for _, g := range []string{morpheus.DefaultGroup, auxGroup} {
				want := r.acceptedFor(id, g)
				for k, n := range want {
					if r.isCrashed(k.Origin) {
						continue
					}
					if r.deliveredCount(traceKey{node: id, group: g}, k) < n {
						return false
					}
				}
			}
		}
		return true
	}
	if !r.waitFor(60*time.Second, complete) {
		violations = append(violations, "liveness: deliveries never completed on the long-lived groups")
	}

	// Windows must drain: all credits home, nothing buffered.
	if !r.waitFor(30*time.Second, func() bool {
		for _, id := range survivors {
			for _, g := range []string{morpheus.DefaultGroup, auxGroup} {
				fs := r.nodes[id].Group(g).FlowStats()
				if fs.Window.InUse != 0 || fs.BufferedSends != 0 {
					return false
				}
			}
		}
		return true
	}) {
		violations = append(violations, "liveness: send windows never drained")
	}

	// Settle at a fixed virtual instant so harvested marks are stable.
	clk.Sleep(500 * time.Millisecond)

	return r.harvest(survivors, crashed, violations), nil
}

// sender spawns one paced flooding actor; the returned channel closes when
// it finishes (all casts accepted, its node crashed, or the horizon hit).
func (r *runner) sender(id NodeID, groupName, stream string, msgs int, pace, horizon time.Duration) <-chan struct{} {
	done := make(chan struct{})
	g := r.nodes[id].Group(groupName)
	clk := r.clk
	deadline := clk.Now().Add(horizon)
	clk.Go(func() {
		defer close(done)
		for i := 0; i < msgs; i++ {
			if r.isCrashed(id) {
				return
			}
			payload := encodePayload(groupName, stream, i)
			for {
				err := g.TrySend(payload)
				if err == nil {
					break
				}
				if !errors.Is(err, morpheus.ErrWindowFull) {
					return // group closed under us: benign post-crash
				}
				r.rejected.Add(1)
				if r.isCrashed(id) || !clk.Now().Before(deadline) {
					return
				}
				clk.Sleep(2 * time.Millisecond)
			}
			r.accept(groupName, id, stream)
			clk.Sleep(pace)
		}
	})
	return done
}

// harvest snapshots the run and checks every invariant.
func (r *runner) harvest(survivors, crashed []NodeID, violations []string) Result {
	opts := r.opts

	// Caps count every member as a potential origin: besides the baseline
	// floods and bursts, a repair flush makes the coordinator originate
	// proposal casts on the data channel. With crash-stops in the schedule
	// the repair path may bound retention by cap-eviction instead of
	// stability (see invariants.Caps.RepairEvictions).
	dataCaps := invariants.CapsFor(opts.SendWindow, len(r.members))
	dataCaps.RepairEvictions = len(crashed) > 0
	if opts.Caps != nil {
		dataCaps = *opts.Caps
	}
	auxCaps := invariants.CapsFor(opts.SendWindow, len(r.members))
	auxCaps.RepairEvictions = len(crashed) > 0

	var flowLines []string
	for _, id := range survivors {
		for _, g := range []string{morpheus.DefaultGroup, auxGroup} {
			grp := r.nodes[id].Group(g)
			fs := grp.FlowStats()
			row := invariants.FlowRow{
				Label:            fmt.Sprintf("node %d/%s", id, g),
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
			}
			caps := dataCaps
			if g == auxGroup {
				caps = auxCaps
			}
			violations = append(violations, caps.CheckBounded(row)...)
			flowLines = append(flowLines, fmt.Sprintf(
				"node=%d group=%s win-hw=%d/%d acq=%d rel=%d mbox-hw=%d nak-hw=%d/%d/%d evicted=%d epoch=%d cfg=%s",
				id, g, fs.Window.HighWater, caps.Window, fs.Window.Acquired, fs.Window.Released,
				fs.MailboxHighWater, fs.Nak.SentHighWater, fs.Nak.HistoryHighWater, fs.Nak.BufferHighWater,
				fs.Nak.Evicted, grp.Epoch(), grp.ConfigName()))
		}
	}

	// Delivery checks across every group a survivor recorded (long-lived
	// and churn groups alike), in deterministic order.
	r.mu.Lock()
	keys := make([]traceKey, 0, len(r.traces))
	for k := range r.traces {
		keys = append(keys, k)
	}
	leaked := r.leaked
	r.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].group < keys[j].group
	})

	delivered := 0
	var deliveryLines []string
	for _, k := range keys {
		if r.crashed[k.node] != nil && r.crashed[k.node].Load() {
			continue // a crashed node's truncated view is not checkable
		}
		r.mu.Lock()
		seq := append([]invariants.Delivery(nil), r.traces[k]...)
		r.mu.Unlock()
		label := fmt.Sprintf("node %d/%s", k.node, k.group)
		violations = append(violations, invariants.CheckDeliveries(label, seq, r.acceptedFor(k.node, k.group))...)

		if k.group == morpheus.DefaultGroup || k.group == auxGroup {
			delivered += len(seq)
		}
		h := sha256.New()
		streams := make(map[invariants.StreamKey]int)
		for _, d := range seq {
			fmt.Fprintf(h, "%d/%s:%d;", d.Origin, d.Stream, d.Index)
			streams[invariants.StreamKey{Origin: d.Origin, Stream: d.Stream}]++
		}
		skeys := make([]invariants.StreamKey, 0, len(streams))
		for s := range streams {
			skeys = append(skeys, s)
		}
		sort.Slice(skeys, func(i, j int) bool {
			if skeys[i].Origin != skeys[j].Origin {
				return skeys[i].Origin < skeys[j].Origin
			}
			return skeys[i].Stream < skeys[j].Stream
		})
		var sb strings.Builder
		for _, s := range skeys {
			fmt.Fprintf(&sb, " %s:%d", s, streams[s])
		}
		deliveryLines = append(deliveryLines, fmt.Sprintf("node=%d group=%s total=%d digest=%x streams{%s }",
			k.node, k.group, len(seq), h.Sum(nil)[:6], sb.String()))
	}

	// Isolation and view convergence.
	violations = append(violations, invariants.CheckNoLeak("run", leaked)...)
	var viewLines []string
	for _, id := range survivors {
		got := r.nodes[id].Manager().Deployment().Members
		violations = append(violations, invariants.CheckView(fmt.Sprintf("node %d", id), got, survivors)...)
		viewLines = append(viewLines, fmt.Sprintf("node=%d view=%v", id, got))
	}

	// Canonical transcript → hash: the bit-identical replay artifact.
	var b strings.Builder
	b.WriteString("=== schedule\n")
	b.WriteString(r.sched.String())
	b.WriteString("=== log\n")
	r.mu.Lock()
	for _, l := range r.log {
		b.WriteString(l + "\n")
	}
	r.mu.Unlock()
	b.WriteString("=== deliveries\n")
	for _, l := range deliveryLines {
		b.WriteString(l + "\n")
	}
	b.WriteString("=== flows\n")
	for _, l := range flowLines {
		b.WriteString(l + "\n")
	}
	b.WriteString("=== views\n")
	for _, l := range viewLines {
		b.WriteString(l + "\n")
	}
	b.WriteString("=== violations\n")
	if len(violations) == 0 {
		b.WriteString("(none)\n")
	}
	for _, v := range violations {
		b.WriteString(v + "\n")
	}
	trace := b.String()
	sum := sha256.Sum256([]byte(trace))

	return Result{
		Seed:       r.sched.Seed,
		Schedule:   r.sched,
		Survivors:  survivors,
		Crashed:    crashed,
		Delivered:  delivered,
		Rejected:   r.rejected.Load(),
		Violations: violations,
		Trace:      trace,
		Hash:       fmt.Sprintf("%x", sum[:8]),
	}
}
