// Package core implements the paper's Control and Reconfiguration
// sub-system (§3.3): a distributed component whose coordinator —
// deterministically elected as the lowest-identifier member of the control
// group — monitors the disseminated context, decides when adaptation is
// required by evaluating global policies, and drives the reconfiguration
// procedure; a local module on every node (stack.Manager) deploys the new
// XML-described protocol stack once the data channel is quiescent.
//
// The layer is a group-hosting control plane: one control channel (one
// membership service, one failure detector, one context dissemination
// plane) serves any number of concurrently hosted data groups. Each group
// registers a GroupRuntime — its stack manager, its adaptation policies,
// its configured membership — and gets an independent policy evaluator,
// epoch counter and reconfiguration pipeline; Prepare/Ack events carry the
// group name so concurrent per-group reconfigurations never interfere.
package core

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/clock"
	"morpheus/internal/cocaditem"
	"morpheus/internal/group"
	"morpheus/internal/stack"
)

// DefaultGroup names the group a single-group node hosts implicitly.
const DefaultGroup = "data"

// Registration errors.
var (
	ErrEmptyGroupName = errors.New("core: empty group name")
	ErrNoManager      = errors.New("core: group runtime needs a manager")
	ErrDuplicateGroup = errors.New("core: group already registered")
	// ErrNotReady reports a wire operation before the control channel is up
	// (or after it closed).
	ErrNotReady = errors.New("core: control channel not ready")
)

// GroupInfo is one hosted group's deployment record as it travels the control
// channel: Core ships it in a PrepareEvent, answers a late joiner's discovery
// query with it in a GroupInfoEvent, and the receiver hands the decoded record
// to its local module as is.
type GroupInfo struct {
	TargetGroup string
	stack.Deployment
}

// push encodes the record as headers — XML, members, config name, epoch,
// group — marshalling Doc for the first.
func (gi *GroupInfo) push(m *appia.Message) error {
	xml, err := gi.Doc.Marshal()
	if err != nil {
		return err
	}
	ids := make([]uint64, len(gi.Members))
	for i, id := range gi.Members {
		ids[i] = uint64(uint32(id))
	}
	m.PushString(xml)
	m.PushUvarintSlice(ids)
	m.PushString(gi.ConfigName)
	m.PushUvarint(gi.Epoch)
	m.PushString(gi.TargetGroup)
	return nil
}

// pop decodes the headers push wrote, parsing the XML back into Doc. The
// record is only assigned once every header decoded.
func (gi *GroupInfo) pop(m *appia.Message) error {
	var (
		got GroupInfo
		err error
	)
	if got.TargetGroup, err = m.PopString(); err != nil {
		return err
	}
	if got.Epoch, err = m.PopUvarint(); err != nil {
		return err
	}
	if got.ConfigName, err = m.PopString(); err != nil {
		return err
	}
	ids, err := m.PopUvarintSlice()
	if err != nil {
		return err
	}
	xml, err := m.PopString()
	if err != nil {
		return err
	}
	if got.Doc, err = appiaxml.ParseString(xml); err != nil {
		return err
	}
	got.Members = make([]appia.NodeID, len(ids))
	for i, u := range ids {
		got.Members[i] = appia.NodeID(uint32(u))
	}
	*gi = got
	return nil
}

// PrepareEvent instructs every participant to deploy a new configuration
// for one hosted group. Reliable (embeds CastEvent). Headers: the GroupInfo.
type PrepareEvent struct {
	group.CastEvent
	GroupInfo
}

// AckEvent reports a completed local deployment for one group. It is a
// reliable cast so the whole control group (and in particular the
// coordinator) learns the deployment status even over lossy links.
type AckEvent struct {
	group.CastEvent
	TargetGroup string
	Epoch       uint64
}

// GroupQueryEvent asks one control-group member (the late joiner's seed)
// for a hosted group's current deployment. Unreliable point-to-point: the
// joiner retries until a GroupInfoEvent answers. Header: group name.
type GroupQueryEvent struct {
	appia.SendableEvent
	TargetGroup string
}

// GroupInfoEvent answers a GroupQueryEvent with the group's deployment
// snapshot — enough for a late joiner to build the same stack at the same
// epoch and request admission into the running view. Its Members are the
// live view, not the epoch's bootstrap list: the joiner must aim its
// data-channel JoinReq at members that still exist. Headers: the GroupInfo.
type GroupInfoEvent struct {
	appia.SendableEvent
	GroupInfo
}

// groupMember is what the two membership announcements carry. Headers:
// group, member.
type groupMember struct {
	TargetGroup string
	Member      appia.NodeID
}

func (gm *groupMember) push(m *appia.Message) {
	m.PushUvarint(uint64(uint32(gm.Member)))
	m.PushString(gm.TargetGroup)
}

func (gm *groupMember) pop(m *appia.Message) error {
	name, err := m.PopString()
	if err != nil {
		return err
	}
	u, err := m.PopUvarint()
	if err != nil {
		return err
	}
	*gm = groupMember{name, appia.NodeID(uint32(u))}
	return nil
}

// GroupJoinEvent announces — reliably, to the whole control group — that
// Member is entering TargetGroup: every hosting node widens the group's
// configured membership so future reconfigurations and the effective view
// include the joiner.
type GroupJoinEvent struct {
	group.CastEvent
	groupMember
}

// GroupLeaveEvent announces a *voluntary* departure of Member from
// TargetGroup, distinct from a failure: survivors narrow the configured
// membership and run a non-holding view change on the group's data channel
// immediately, so stability watermarks exclude the leaver within one flush
// round instead of holding casts and send credits until FD eviction.
type GroupLeaveEvent struct {
	group.CastEvent
	groupMember
}

// RegisterWireEvents registers core's wire kinds (idempotent).
func RegisterWireEvents(reg *appia.EventKindRegistry) {
	if reg == nil {
		reg = appia.DefaultRegistry()
	}
	appia.RegisterKind[PrepareEvent](reg, "core.prepare")
	appia.RegisterKind[AckEvent](reg, "core.ack")
	appia.RegisterKind[GroupQueryEvent](reg, "core.groupquery")
	appia.RegisterKind[GroupInfoEvent](reg, "core.groupinfo")
	appia.RegisterKind[GroupJoinEvent](reg, "core.groupjoin")
	appia.RegisterKind[GroupLeaveEvent](reg, "core.groupleave")
}

// PolicyInput is what a policy sees: the group's effective view (the
// configured group membership restricted to control-group-live nodes), the
// shared context store, the currently deployed configuration, and the name
// of the group under evaluation.
type PolicyInput struct {
	View    group.View
	Context *cocaditem.Session
	Current string
	Group   string
}

// Decision is a policy's verdict: deploy Doc under ConfigName for Members.
type Decision struct {
	ConfigName string
	Doc        *appiaxml.Document
	Members    []appia.NodeID
	Reason     string
}

// Policy evaluates context into configuration decisions. Policies are
// global: they see the whole distributed context and decide for the whole
// group, which is precisely what entangling adaptation code inside each
// protocol cannot do (paper §2).
type Policy interface {
	// Name identifies the policy in logs.
	Name() string
	// Evaluate returns nil when no change is warranted.
	Evaluate(in PolicyInput) *Decision
}

// GroupRuntime wires one hosted group into the control plane: the local
// deployment module, the adaptation policies evaluated for the group, and
// the group's configured membership.
type GroupRuntime struct {
	// Group names the group; it must be unique on the node and match the
	// name every other member registers.
	Group string
	// Manager is the group's local deployment module.
	Manager *stack.Manager
	// Policies are evaluated in order at the group's coordinator; the
	// first decision wins. Empty means a non-adaptive group.
	Policies []Policy
	// Members is the group's configured membership. The group's effective
	// view — what policies evaluate and reconfigurations target — is this
	// set restricted to control-group-live nodes. Empty means the whole
	// control group.
	Members []appia.NodeID
	// OnReconfigured, when set, is called at the group's coordinator once
	// every member has acknowledged an epoch, with the wall time the
	// procedure took.
	OnReconfigured func(epoch uint64, configName string, took time.Duration)
}

// Config configures the Core layer.
type Config struct {
	// Self is this node's identifier.
	Self appia.NodeID
	// Groups are the groups hosted from startup; more can be added (and
	// removed) at run time via Session.Register / Session.Unregister.
	Groups []GroupRuntime
	// EvalInterval is the policy evaluation period (default 200ms).
	EvalInterval time.Duration
	// Clock times reconfiguration latencies and spawns the per-deployment
	// goroutines. Nil means wall clock; under a *clock.Virtual, deployments
	// join the clock's actor rotation so reconfigurations are part of the
	// deterministic timeline.
	Clock clock.Clock
	// Logf receives diagnostics.
	Logf func(format string, args ...any)
}

func (c *Config) clock() clock.Clock { return clock.Or(c.Clock) }

func (c *Config) evalInterval() time.Duration {
	if c.EvalInterval <= 0 {
		return 200 * time.Millisecond
	}
	return c.EvalInterval
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Layer is the Core control layer; place it at the top of the control
// channel, above cocaditem.
type Layer struct {
	appia.BaseLayer
	cfg Config
}

// NewLayer returns a Core layer.
func NewLayer(cfg Config) *Layer {
	return &Layer{
		BaseLayer: appia.BaseLayer{
			LayerName: "core",
			LayerSpec: appia.LayerSpec{
				Accepts: []appia.EventType{
					appia.T[*PrepareEvent](),
					appia.T[*AckEvent](),
					appia.T[*GroupQueryEvent](),
					appia.T[*GroupInfoEvent](),
					appia.T[*GroupJoinEvent](),
					appia.T[*GroupLeaveEvent](),
					appia.T[*group.ViewInstall](),
					appia.T[*evalTick](),
					appia.T[*appia.ChannelInit](),
				},
				Provides: []appia.EventType{
					appia.T[*PrepareEvent](),
					appia.T[*AckEvent](),
					appia.T[*GroupQueryEvent](),
					appia.T[*GroupInfoEvent](),
					appia.T[*GroupJoinEvent](),
					appia.T[*GroupLeaveEvent](),
				},
			},
		},
		cfg: cfg,
	}
}

// NewSession implements appia.Layer.
func (l *Layer) NewSession() appia.Session {
	s := &Session{cfg: l.cfg, groups: make(map[string]*groupState)}
	for _, rt := range l.cfg.Groups {
		if err := s.Register(rt); err != nil {
			l.cfg.logf("core[%d]: register group %q: %v", l.cfg.Self, rt.Group, err)
		}
	}
	return s
}

// evalTick is the private policy evaluation timer.
type evalTick struct {
	appia.EventBase
}

// groupState is one hosted group's control-plane state. Everything except
// deployedEpoch is only touched on the control scheduler goroutine (after
// the registration happens-before edge); deployedEpoch is written by deploy
// goroutines and is therefore atomic.
type groupState struct {
	rt      GroupRuntime
	epoch   uint64
	current string

	// Coordinator reconfiguration-in-flight state.
	inFlight      bool
	acks          map[appia.NodeID]bool
	decidedAt     time.Time
	flightName    string
	flightMembers []appia.NodeID

	// deployedEpoch tracks what the local manager finished deploying.
	deployedEpoch atomic.Uint64
}

// Session is the per-node Core instance: the shared control plane plus one
// evaluator per hosted group.
type Session struct {
	cfg      Config
	ctx      *cocaditem.Session
	stopTick func()

	view group.View // control-group view; scheduler goroutine only

	mu     sync.Mutex // guards the groups registry
	groups map[string]*groupState

	// wireMu guards the channel handle and the group-info cache: both are
	// written on the scheduler goroutine and read by the facade's join
	// machinery from arbitrary goroutines.
	wireMu sync.Mutex
	wireCh *appia.Channel
	infos  map[string]GroupInfo
}

var _ appia.Session = (*Session)(nil)

// Register adds a hosted group to the control plane. The group's manager
// must already hold its initial deployment. Safe from any goroutine.
func (s *Session) Register(rt GroupRuntime) error {
	if rt.Group == "" {
		return ErrEmptyGroupName
	}
	if rt.Manager == nil {
		return ErrNoManager
	}
	// The group view and its coordinator election assume a sorted,
	// deduplicated membership (View.Members is documented ascending).
	rt.Members = group.NormalizeMembers(append([]appia.NodeID(nil), rt.Members...))
	dep := rt.Manager.Deployment()
	gs := &groupState{rt: rt, epoch: dep.Epoch, current: dep.ConfigName}
	gs.deployedEpoch.Store(gs.epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.groups[rt.Group]; dup {
		return ErrDuplicateGroup
	}
	s.groups[rt.Group] = gs
	return nil
}

// Unregister removes a hosted group; in-flight deployments finish but no
// further adaptation happens for it. Safe from any goroutine.
func (s *Session) Unregister(name string) {
	s.mu.Lock()
	delete(s.groups, name)
	s.mu.Unlock()
}

// Groups returns the names of the hosted groups, sorted.
func (s *Session) Groups() []string {
	states := s.snapshot()
	out := make([]string, len(states))
	for i, gs := range states {
		out[i] = gs.rt.Group
	}
	return out
}

// lookup resolves a hosted group.
func (s *Session) lookup(name string) *groupState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.groups[name]
}

// snapshot returns the hosted groups in deterministic order.
func (s *Session) snapshot() []*groupState {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.groups))
	for name := range s.groups {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*groupState, 0, len(names))
	for _, name := range names {
		out = append(out, s.groups[name])
	}
	return out
}

// Handle implements appia.Session.
func (s *Session) Handle(ch *appia.Channel, ev appia.Event) {
	switch e := ev.(type) {
	case *appia.ChannelInit:
		if sess, ok := ch.SessionFor("cocaditem").(*cocaditem.Session); ok {
			s.ctx = sess
		}
		s.wireMu.Lock()
		s.wireCh = ch
		s.wireMu.Unlock()
		self := appia.Session(s)
		s.stopTick = ch.DeliverEvery(s.cfg.evalInterval(), self, func() appia.Event { return &evalTick{} })
		ch.Forward(ev)
	case *appia.ChannelClose:
		if s.stopTick != nil {
			s.stopTick()
		}
		s.wireMu.Lock()
		s.wireCh = nil
		s.wireMu.Unlock()
		ch.Forward(ev)
	case *group.ViewInstall:
		if e.Dir() == appia.Up {
			s.view = e.View
		}
		ch.Forward(ev)
	case *evalTick:
		s.evaluate(ch)
	case *PrepareEvent:
		s.onPrepare(ch, e)
	case *AckEvent:
		s.onAck(ch, e)
	case *GroupQueryEvent:
		s.onGroupQuery(ch, e)
	case *GroupInfoEvent:
		s.onGroupInfo(ch, e)
	case *GroupJoinEvent:
		s.onGroupJoin(ch, e)
	case *GroupLeaveEvent:
		s.onGroupLeave(ch, e)
	default:
		ch.Forward(ev)
	}
}

// groupView computes a group's effective view: the configured membership
// restricted to control-group-live nodes (or the whole control view for
// groups without a configured membership). This is how the single shared
// failure detector feeds liveness into every hosted group.
func (s *Session) groupView(gs *groupState) group.View {
	if len(gs.rt.Members) == 0 {
		return s.view.Clone()
	}
	v := group.View{ID: s.view.ID}
	for _, m := range gs.rt.Members {
		if s.view.Contains(m) {
			v.Members = append(v.Members, m)
		}
	}
	return v
}

// evaluate runs every hosted group's policies at that group's coordinator.
// Groups evaluate independently: one group's in-flight reconfiguration
// never blocks another's.
func (s *Session) evaluate(ch *appia.Channel) {
	if len(s.view.Members) == 0 {
		return
	}
	for _, gs := range s.snapshot() {
		s.evaluateGroup(ch, gs)
	}
}

func (s *Session) evaluateGroup(ch *appia.Channel, gs *groupState) {
	if gs.inFlight && s.cfg.clock().Since(gs.decidedAt) > 30*time.Second {
		// Safety valve: a member died mid-deployment and its ack will
		// never come; the control view change will resolve membership,
		// and adaptation must not stay wedged meanwhile.
		s.cfg.logf("core[%d]: group %q epoch %d acks incomplete after 30s; unblocking",
			s.cfg.Self, gs.rt.Group, gs.epoch)
		gs.inFlight = false
	}
	gv := s.groupView(gs)
	if len(gv.Members) == 0 || gv.Coordinator() != s.cfg.Self {
		return
	}
	if gs.inFlight {
		return
	}
	if s.ctx != nil {
		in := PolicyInput{View: gv, Context: s.ctx, Current: gs.current, Group: gs.rt.Group}
		for _, p := range gs.rt.Policies {
			d := p.Evaluate(in)
			if d == nil {
				continue
			}
			if d.ConfigName == gs.current {
				continue
			}
			s.initiate(ch, gs, gv, p, d)
			return
		}
	}
	// No policy wants a different configuration; repair runs for adaptive
	// and non-adaptive groups alike.
	s.repairMembership(ch, gs, gv)
}

// repairPolicy labels membership-repair redeployments in logs.
type repairPolicy struct{}

func (repairPolicy) Name() string                   { return "membership-repair" }
func (repairPolicy) Evaluate(PolicyInput) *Decision { return nil }

// repairMembership redeploys the CURRENT configuration with a narrowed
// membership when a deployed member is no longer control-group-live. No
// policy asks for this (the config name does not change), but without it a
// dead or partitioned peer stays in the data channel's reliable-layer
// member set forever: stability gossip can never cover it, retransmission
// buffers stop pruning, and — with send windows — every sender eventually
// blocks on credits the dead peer will never release. The repair flush
// evicts the peer, which both re-bounds retention and releases the stalled
// credits (see group.nak's view-install release).
func (s *Session) repairMembership(ch *appia.Channel, gs *groupState, gv group.View) {
	// The repair examines the union of the epoch's deploy list and the
	// channel's live view: mid-epoch views only ever shrink the deploy list
	// except for late-join admissions, and an admitted joiner that dies
	// before the next reconfiguration exists only in the view — it must
	// trigger the same eviction a deployed member's death does.
	dep := gs.rt.Manager.Deployment()
	if len(dep.Members) == 0 || len(gv.Members) == 0 || dep.Doc == nil {
		return
	}
	check := dep.Members
	for _, m := range dep.View {
		if !slices.Contains(dep.Members, m) {
			check = append(check, m)
		}
	}
	// Eviction keys off the raw control-group view, not gv: a member can be
	// missing from gv merely because its join announcement has not been
	// delivered yet — the gms admits through the data channel while the
	// announcement rides the control channel, and there is no cross-channel
	// ordering. Such a member is a live late joiner mid-admission; evicting
	// it would redeploy the group around a node stranded in a view only it
	// committed (chaos churn seed 28). Only a member the failure detector
	// actually removed from the control group is dead to repair.
	if !slices.ContainsFunc(check, func(m appia.NodeID) bool { return !s.view.Contains(m) }) {
		return
	}
	// The repaired membership keeps every control-live member from both
	// sides: gv (the announced membership) plus any admitted-but-
	// unannounced joiner that so far exists only in the data view.
	members := append([]appia.NodeID(nil), gv.Members...)
	for _, m := range check {
		if s.view.Contains(m) && !gv.Contains(m) {
			members = append(members, m)
		}
	}
	s.initiate(ch, gs, gv, repairPolicy{}, &Decision{
		ConfigName: gs.current,
		Doc:        dep.Doc,
		Members:    group.NormalizeMembers(members),
		Reason:     "deployed membership lost a control-live member",
	})
}

// initiate starts a reconfiguration of one group: ship the XML to everybody
// (§3.3: "the coordinator sends to each participant the configuration that
// should be deployed at that node"). Non-members of the group receive and
// ignore the Prepare — the control channel is shared, the deployment is
// not.
func (s *Session) initiate(ch *appia.Channel, gs *groupState, gv group.View, p Policy, d *Decision) {
	members := d.Members
	if len(members) == 0 {
		members = gv.Members
	}
	ev := &PrepareEvent{GroupInfo: GroupInfo{TargetGroup: gs.rt.Group, Deployment: stack.Deployment{
		Epoch:      gs.epoch + 1,
		ConfigName: d.ConfigName,
		Members:    slices.Clone(members),
		Doc:        d.Doc,
	}}}
	ev.Class = appia.ClassControl
	if err := ev.push(ev.EnsureMsg()); err != nil {
		s.cfg.logf("core[%d]: group %q: marshal config %q: %v", s.cfg.Self, gs.rt.Group, d.ConfigName, err)
		return
	}
	gs.epoch = ev.Epoch
	gs.inFlight = true
	gs.acks = make(map[appia.NodeID]bool)
	gs.decidedAt = s.cfg.clock().Now()
	gs.flightName = d.ConfigName
	gs.flightMembers = ev.Members
	s.cfg.logf("core[%d]: group %q: policy %q: %s -> %s (epoch %d): %s",
		s.cfg.Self, gs.rt.Group, p.Name(), gs.current, d.ConfigName, gs.epoch, d.Reason)
	gs.current = d.ConfigName
	sess := appia.Session(s)
	_ = ch.SendFrom(sess, ev, appia.Down)
}

// onPrepare deploys the new configuration locally (every group member,
// including the coordinator, through the reliable self-delivery).
func (s *Session) onPrepare(ch *appia.Channel, e *PrepareEvent) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	if err := e.pop(e.EnsureMsg()); err != nil {
		s.cfg.logf("core[%d]: dropping undecodable prepare: %v", s.cfg.Self, err)
		return
	}
	groupName, epoch := e.TargetGroup, e.Epoch
	gs := s.lookup(groupName)
	if gs == nil {
		return // we do not host this group: not our deployment
	}
	if epoch < gs.epoch {
		// Out-of-order Prepare from a deposed coordinator (the control
		// channel is FIFO per origin only): the deployment would be
		// rejected as stale anyway, and adopting its config name would
		// desynchronize this node's believed configuration — at a
		// coordinator, that triggers a pointless group-wide redeployment.
		return
	}
	gs.epoch = epoch
	gs.current = e.ConfigName

	// The deployment blocks on view-synchronous quiescence, so it runs off
	// the scheduler goroutine; the Ack is inserted thread-safely after.
	// Deployments of different groups run concurrently by construction.
	// Spawned through the clock: under the virtual clock plane the
	// deployment goroutine is an actor, queued for the run token in this
	// (deterministic) program order.
	s.cfg.clock().Go(func() {
		if err := gs.rt.Manager.Reconfigure(e.Deployment); err != nil {
			s.cfg.logf("core[%d]: group %q: reconfigure epoch %d: %v", s.cfg.Self, groupName, epoch, err)
			return
		}
		for {
			cur := gs.deployedEpoch.Load()
			if epoch <= cur || gs.deployedEpoch.CompareAndSwap(cur, epoch) {
				break
			}
		}
		ack := &AckEvent{TargetGroup: groupName, Epoch: epoch}
		ack.Class = appia.ClassControl
		am := ack.EnsureMsg()
		am.PushUvarint(epoch)
		am.PushString(groupName)
		if err := ch.Insert(ack, appia.Down); err != nil {
			s.cfg.logf("core[%d]: group %q: ack epoch %d: %v", s.cfg.Self, groupName, epoch, err)
		}
	})
}

// onAck tallies deployment acknowledgements at the group's coordinator.
func (s *Session) onAck(ch *appia.Channel, e *AckEvent) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	m := e.EnsureMsg()
	groupName, err := m.PopString()
	if err != nil {
		return
	}
	epoch, err := m.PopUvarint()
	if err != nil {
		return
	}
	e.TargetGroup, e.Epoch = groupName, epoch
	gs := s.lookup(groupName)
	if gs == nil {
		return
	}
	if !gs.inFlight || epoch != gs.epoch || gs.acks == nil {
		return
	}
	// Origin (set by the reliable layer) identifies the deployer; the
	// substrate-level Source may be a relay.
	gs.acks[e.Origin] = true
	for _, mbr := range gs.flightMembers {
		if mbr == s.cfg.Self {
			continue // our own deployment is tracked via deployedEpoch
		}
		if !s.view.Contains(mbr) {
			continue // died mid-flight; the view change excused it
		}
		if !gs.acks[mbr] {
			return
		}
	}
	// All remote members acked; require the local deployment too.
	if gs.deployedEpoch.Load() < epoch {
		// Re-check on the next ack: the local goroutine's ack-to-self
		// closes the loop below.
		return
	}
	gs.inFlight = false
	took := s.cfg.clock().Since(gs.decidedAt)
	if gs.rt.OnReconfigured != nil {
		gs.rt.OnReconfigured(epoch, gs.flightName, took)
	}
	s.cfg.logf("core[%d]: group %q: epoch %d (%s) deployed group-wide in %v",
		s.cfg.Self, gs.rt.Group, epoch, gs.flightName, took)
}

// onGroupQuery answers a late joiner's discovery query from the local
// deployment state, point-to-point and unreliably (the joiner retries).
// Nodes that do not host the group stay silent.
func (s *Session) onGroupQuery(ch *appia.Channel, e *GroupQueryEvent) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	groupName, err := e.EnsureMsg().PopString()
	if err != nil {
		return
	}
	e.TargetGroup = groupName
	gs := s.lookup(groupName)
	if gs == nil {
		return
	}
	info := &GroupInfoEvent{GroupInfo: GroupInfo{TargetGroup: groupName, Deployment: gs.rt.Manager.Deployment()}}
	if info.Doc == nil {
		return
	}
	info.Members = info.View
	info.Dest = e.Source
	info.Class = appia.ClassControl
	if err := info.push(info.EnsureMsg()); err != nil {
		s.cfg.logf("core[%d]: group %q: marshal for group info: %v", s.cfg.Self, groupName, err)
		return
	}
	sess := appia.Session(s)
	_ = ch.SendFrom(sess, info, appia.Down)
}

// onGroupInfo caches a discovery answer for LastGroupInfo.
func (s *Session) onGroupInfo(ch *appia.Channel, e *GroupInfoEvent) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	if err := e.pop(e.EnsureMsg()); err != nil {
		s.cfg.logf("core[%d]: dropping undecodable group info: %v", s.cfg.Self, err)
		return
	}
	s.wireMu.Lock()
	if s.infos == nil {
		s.infos = make(map[string]GroupInfo)
	}
	if cur, ok := s.infos[e.TargetGroup]; !ok || e.Epoch >= cur.Epoch {
		s.infos[e.TargetGroup] = e.GroupInfo
	}
	s.wireMu.Unlock()
}

// onGroupJoin widens a hosted group's configured membership with an
// announced joiner, so the effective view (and every future
// reconfiguration) includes it. The joiner's own data-channel admission
// runs separately through the group's GMS.
func (s *Session) onGroupJoin(ch *appia.Channel, e *GroupJoinEvent) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	if e.pop(e.EnsureMsg()) != nil || e.Member == s.cfg.Self {
		return // undecodable, or our own announcement echoing back
	}
	gs := s.lookup(e.TargetGroup)
	if gs == nil || len(gs.rt.Members) == 0 || slices.Contains(gs.rt.Members, e.Member) {
		// Not hosting, or membership slaved to the whole control group —
		// which tracks the joiner by construction — or already listed.
		return
	}
	gs.rt.Members = group.NormalizeMembers(append(gs.rt.Members, e.Member))
}

// onGroupLeave narrows a hosted group's configured membership after a
// voluntary departure and runs a non-holding view change on the data
// channel so survivors' stability watermarks exclude the leaver now —
// releasing its held casts and send-window credits within one flush round
// instead of wedging until FD eviction (the leaver stays control-live on
// its node, so the failure detector never excuses it).
func (s *Session) onGroupLeave(ch *appia.Channel, e *GroupLeaveEvent) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	if e.pop(e.EnsureMsg()) != nil {
		return
	}
	gs := s.lookup(e.TargetGroup)
	if gs == nil {
		return // not hosting (or we are the leaver: Leave unregisters first)
	}
	if len(gs.rt.Members) == 0 {
		// Whole-control-group membership: materialize it minus the leaver —
		// the leaver stays control-live, so restriction alone cannot excuse
		// it.
		gs.rt.Members = slices.Clone(s.view.Members)
	}
	isLeaver := func(m appia.NodeID) bool { return m == e.Member }
	gs.rt.Members = slices.DeleteFunc(gs.rt.Members, isLeaver)
	// Evict the leaver from the running data view. Scoped to the surviving
	// view members so the lowest survivor coordinates even when the leaver
	// was the data channel's coordinator.
	vm := gs.rt.Manager.ViewMembers()
	if !slices.Contains(vm, e.Member) {
		return // already excluded (a repair or eviction got there first)
	}
	survivors := slices.DeleteFunc(vm, isLeaver)
	if !slices.Contains(survivors, s.cfg.Self) {
		return
	}
	dch := gs.rt.Manager.Channel()
	if dch == nil {
		return
	}
	trigger := &group.TriggerFlush{Hold: false, Members: survivors}
	if err := dch.Insert(trigger, appia.Down); err != nil {
		// A reconfiguration is tearing the channel down: the next epoch
		// bootstraps from the already-narrowed membership.
		s.cfg.logf("core[%d]: group %q: leave flush for %d: %v", s.cfg.Self, e.TargetGroup, e.Member, err)
	}
}

// --- Facade wire APIs (safe from any goroutine) -----------------------------

func (s *Session) channel() *appia.Channel {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	return s.wireCh
}

// RequestGroupInfo asks seed for a hosted group's deployment snapshot; the
// answer lands in LastGroupInfo. Unreliable — callers retry.
func (s *Session) RequestGroupInfo(seed appia.NodeID, groupName string) error {
	ch := s.channel()
	if ch == nil {
		return ErrNotReady
	}
	q := &GroupQueryEvent{TargetGroup: groupName}
	q.Dest = seed
	q.Class = appia.ClassControl
	q.EnsureMsg().PushString(groupName)
	return ch.Insert(q, appia.Down)
}

// LastGroupInfo returns the most recent discovery answer for a group.
func (s *Session) LastGroupInfo(groupName string) (GroupInfo, bool) {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	info, ok := s.infos[groupName]
	return info, ok
}

// ForgetGroupInfo drops a cached discovery answer (before re-querying).
func (s *Session) ForgetGroupInfo(groupName string) {
	s.wireMu.Lock()
	delete(s.infos, groupName)
	s.wireMu.Unlock()
}

// AnnounceJoin reliably announces to the control group that member is
// entering groupName (see GroupJoinEvent).
func (s *Session) AnnounceJoin(groupName string, member appia.NodeID) error {
	return s.announceMembership(groupName, member, true)
}

// AnnounceLeave reliably announces member's voluntary departure from
// groupName (see GroupLeaveEvent).
func (s *Session) AnnounceLeave(groupName string, member appia.NodeID) error {
	return s.announceMembership(groupName, member, false)
}

func (s *Session) announceMembership(groupName string, member appia.NodeID, join bool) error {
	ch := s.channel()
	if ch == nil {
		return ErrNotReady
	}
	gm := groupMember{groupName, member}
	var ev group.Caster
	if join {
		ev = &GroupJoinEvent{groupMember: gm}
	} else {
		ev = &GroupLeaveEvent{groupMember: gm}
	}
	base := ev.CastBase()
	base.Class = appia.ClassControl
	gm.push(base.EnsureMsg())
	return ch.Insert(ev, appia.Down)
}

// DeployedEpoch reports the last epoch the named group's local manager
// finished (safe from any goroutine; 0 for unknown groups).
func (s *Session) DeployedEpoch(groupName string) uint64 {
	gs := s.lookup(groupName)
	if gs == nil {
		return 0
	}
	return gs.deployedEpoch.Load()
}

// CurrentConfig returns the configuration name this node believes active
// for the named group. Scheduler-goroutine safety: reads a field written on
// the scheduler; for test/diagnostic use only.
func (s *Session) CurrentConfig(groupName string) string {
	gs := s.lookup(groupName)
	if gs == nil {
		return ""
	}
	return gs.current
}
