package stack

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/clock"
	"morpheus/internal/flowctl"
	"morpheus/internal/group"
	"morpheus/internal/netio"
)

// Manager errors.
var (
	ErrNotDeployed = errors.New("stack: no configuration deployed")
	ErrStaleEpoch  = errors.New("stack: stale configuration epoch")
	ErrClosed      = errors.New("stack: manager closed")
	// ErrGroupClosed reports a send on a group that has been left or whose
	// node has closed. Unlike a reconfiguration race (which buffers
	// transparently), this is final: the payload was NOT accepted.
	ErrGroupClosed = errors.New("stack: group closed")
	// ErrWindowFull is the non-blocking send's backpressure signal.
	ErrWindowFull = flowctl.ErrWindowFull
)

// DefaultSendWindow is the per-group send-window capacity used when
// ManagerConfig.SendWindow is zero. It is a small multiple of the
// standard configurations' delivery-driven stability period (stable-every
// 64), so under sustained load credits return in batches well before the
// window drains.
const DefaultSendWindow = 256

// ManagerConfig configures a StackManager.
type ManagerConfig struct {
	// Node is the local network attachment (any netio substrate).
	Node netio.Endpoint
	// Self is this node's identifier.
	Self appia.NodeID
	// Group names the hosted group this manager serves. When set, the
	// per-epoch port is namespaced as "<group>/data@<epoch>", extending
	// the epoch isolation the port scheme already provides to group
	// isolation: a node hosting many groups gives each one a disjoint port
	// space, so frames can never cross groups even when two groups sit at
	// the same epoch. Delivered casts are stamped with the group name.
	// Empty means a single-group node (legacy "data@<epoch>" ports).
	Group string
	// Scheduler runs all of the node's channels.
	Scheduler *appia.Scheduler
	// QuiesceTimeout bounds the wait for view-synchronous quiescence
	// before a reconfiguration force-closes the old channel.
	QuiesceTimeout time.Duration
	// Clock times the quiescence wait. Nil means wall clock; it must be
	// the scheduler's clock so reconfigurations stay on one timeline.
	Clock clock.Clock
	// OnDeliver receives application casts from whatever channel is
	// currently deployed. Called on the scheduler goroutine. The event and
	// its message are borrowed until the callback returns — the channel then
	// releases both — so a callback that keeps anything copies it.
	OnDeliver func(ev *group.CastEvent)
	// OnViewChange, when set, observes data-channel views.
	OnViewChange func(v group.View)
	// SendWindow is the per-group send window: the maximum application
	// casts in flight (credit consumed at Send, released when stability
	// gossip confirms group-wide delivery). 0 means DefaultSendWindow;
	// Deploy rejects a negative value. The window applies to
	// configurations carrying the reliable NAK layer; stacks without a
	// stability plane (e.g. pure FEC) send unwindowed.
	SendWindow int
	// SendWindowBytes is the byte-denominated companion to SendWindow: a
	// second credit window charging each accepted payload its size in
	// bytes (clamped to the window capacity), released on the same
	// stability watermark as the message credit. It bounds
	// retained *bytes* where SendWindow bounds retained *messages*, so a
	// few huge casts exert the same backpressure as many small ones. 0
	// disables byte windowing; the byte window supplements the message
	// window, never replaces it.
	SendWindowBytes int
	// Logf receives diagnostics; nil discards them (library code never
	// writes to the global logger).
	Logf netio.Logf
}

func (c *ManagerConfig) sendWindow() int {
	if c.SendWindow == 0 {
		return DefaultSendWindow
	}
	return c.SendWindow
}

// dataChannel names the data channel in configuration documents and
// prefixes its per-epoch substrate port.
const dataChannel = "data"

// portFor computes the substrate port for one configuration epoch,
// namespaced by group when the manager serves one of many hosted groups.
func (c *ManagerConfig) portFor(epoch uint64) string {
	if c.Group == "" {
		return fmt.Sprintf("%s@%d", dataChannel, epoch)
	}
	return fmt.Sprintf("%s/%s@%d", c.Group, dataChannel, epoch)
}

func (c *ManagerConfig) clock() clock.Clock { return clock.Or(c.Clock) }

func (c *ManagerConfig) quiesceTimeout() time.Duration {
	if c.QuiesceTimeout <= 0 {
		return defaultQuiesceTimeout
	}
	return c.QuiesceTimeout
}

func (c *ManagerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Deployment is what Core ships and the local module installs: one
// configuration of the group's data channel at one epoch.
type Deployment struct {
	// Epoch numbers the configuration; the data channel's substrate port is
	// derived from it.
	Epoch uint64
	// ConfigName names the configuration.
	ConfigName string
	// Members is the epoch's deploy-time bootstrap list.
	Members []appia.NodeID
	// View is the membership of the data channel's most recent *installed
	// view* within the epoch — the live set, which mid-epoch view changes
	// (failure evictions, late-join admissions, leave announcements) update
	// without disturbing the deploy list the repair and redeploy paths
	// reason about. Manager.Deployment reports Members here until the first
	// install; what a caller passes in is ignored.
	View []appia.NodeID
	// Doc is the configuration document, retained so the control plane can
	// redeploy the same configuration with a narrowed membership after a
	// member death (membership repair).
	Doc *appiaxml.Document
}

// Manager is the Core sub-system's local module: it owns the node's data
// channel, deploys XML-described configurations, and performs the §3.3
// reconfiguration procedure — quiesce via view synchrony, tear down,
// rebuild from XML, resume buffered traffic on the new stack.
type Manager struct {
	cfg ManagerConfig
	reg *appiaxml.LayerRegistry
	// win is the group's send windows (Msgs never nil: Deploy rejects a
	// negative SendWindow and zero means DefaultSendWindow; Bytes nil when
	// byte windowing is off). One credit per accepted application payload,
	// held across reconfiguration buffering and released by the reliable
	// layer on stability (or by insert when the payload lands on an
	// unwindowed stack).
	win   flowctl.Windows
	state struct {
		sync.Mutex
		ch *appia.Channel
		// dep is the deployed configuration; dep.View is nil until the
		// epoch's first view installs. Its slices are replaced, never
		// written through.
		dep      Deployment
		buffered []heldSend // payloads held during reconfiguration
		// windowed records whether the deployed channel contains a
		// credit-releasing reliable layer; sends on unwindowed stacks
		// return their credit at insert.
		windowed bool
		// nakBase accumulates retention high-water marks of torn-down
		// epochs; FlowStats merges it with the live channel's marks.
		// nakMerged remembers the last channel folded in, so a Close
		// racing a Reconfigure cannot double-count the same epoch's
		// Evicted tally.
		nakBase   group.NakStats
		nakMerged *appia.Channel
		quiesced  chan struct{}
		// quiescentSeen remembers that the current channel already
		// reported quiescence; the flush can complete before this node's
		// Core even learns a reconfiguration is underway (control and
		// data channels are not mutually ordered), so the signal must be
		// level- rather than edge-triggered.
		quiescentSeen bool
		reconfig      bool
		// closed marks the manager permanently torn down; a reconfiguration
		// that completes after Close must discard its freshly built channel
		// instead of installing it (which would re-bind the group's ports
		// on a supposedly-left group).
		closed bool
	}
}

// heldSend is one accepted payload and the credit it holds, on its way to
// becoming a CastEvent (directly, or through the reconfiguration buffer).
type heldSend struct {
	payload []byte
	flowctl.Credit
}

// NewManager returns a manager with nothing deployed yet. The standard
// wire event kinds are registered in the process default registry so a
// freshly constructed manager can always decode its own traffic.
func NewManager(cfg ManagerConfig) *Manager {
	RegisterAllWireEvents(nil)
	return &Manager{
		cfg: cfg,
		reg: NewStandardRegistry(),
		win: flowctl.Windows{
			Msgs:  flowctl.New(cfg.sendWindow(), cfg.clock()),
			Bytes: flowctl.New(cfg.SendWindowBytes, cfg.clock()),
		},
	}
}

// Window exposes the group's message send window.
func (m *Manager) Window() *flowctl.Window { return m.win.Msgs }

// Group returns the hosted group this manager serves ("" on single-group
// nodes).
func (m *Manager) Group() string { return m.cfg.Group }

// Deployment snapshots the deployed configuration under one lock hold, so
// the epoch, name, document and memberships a caller sees always belong
// together (the zero Deployment before the first Deploy).
func (m *Manager) Deployment() Deployment {
	m.state.Lock()
	defer m.state.Unlock()
	d := m.state.dep
	if d.View == nil {
		d.View = d.Members
	}
	d.Members, d.View = slices.Clone(d.Members), slices.Clone(d.View)
	return d
}

// ViewMembers returns the membership of the data channel's most recently
// installed view (see Deployment.View).
func (m *Manager) ViewMembers() []appia.NodeID { return m.Deployment().View }

// Channel returns the live data channel (nil before the first Deploy).
func (m *Manager) Channel() *appia.Channel {
	m.state.Lock()
	defer m.state.Unlock()
	return m.state.ch
}

// Deploy builds and starts the data channel from the document, replacing
// nothing — it is the initial deployment. Epoch starts at 1 unless the
// caller passes a later one.
func (m *Manager) Deploy(doc *appiaxml.Document, configName string, epoch uint64, members []appia.NodeID) error {
	if m.cfg.SendWindow < 0 {
		return fmt.Errorf("stack: negative SendWindow %d", m.cfg.SendWindow)
	}
	d := Deployment{Epoch: epoch, ConfigName: configName, Members: members, Doc: doc}
	ch, err := m.build(d)
	if err != nil {
		return err
	}
	if err := ch.Start(); err != nil {
		return err
	}
	if !ch.WaitReady(m.cfg.quiesceTimeout()) {
		return fmt.Errorf("stack: channel for epoch %d never became ready", epoch)
	}
	m.state.Lock()
	if m.state.closed {
		m.state.Unlock()
		_ = ch.Close()
		return ErrClosed
	}
	m.installLocked(ch, d)
	m.state.Unlock()
	return nil
}

// installLocked makes ch the deployed channel of a fresh epoch. Must hold
// m.state.
func (m *Manager) installLocked(ch *appia.Channel, d Deployment) {
	d.Members = slices.Clone(d.Members)
	d.View = nil // live set = deploy list until a view installs
	m.state.ch = ch
	m.state.dep = d
	// Only a channel with the reliable layer releases credits.
	m.state.windowed = ch.SessionFor("group.nak") != nil
	m.state.quiescentSeen = false // fresh channel, fresh lifecycle
}

// build instantiates the channel for a deployment.
func (m *Manager) build(d Deployment) (*appia.Channel, error) {
	spec, err := d.Doc.Channel(dataChannel)
	if err != nil {
		return nil, err
	}
	return appiaxml.BuildChannel(spec, m.reg, &appiaxml.Env{
		Node:       m.cfg.Node,
		Self:       m.cfg.Self,
		Group:      m.cfg.Group,
		Members:    group.NormalizeMembers(slices.Clone(d.Members)),
		Port:       m.cfg.portFor(d.Epoch),
		Scheduler:  m.cfg.Scheduler,
		Deliver:    m.deliver,
		Logf:       m.cfg.logf,
		Clock:      m.cfg.clock(),
		Credits:    m.win,
		SendWindow: m.win.Msgs.Capacity(),
	})
}

// deliver fans channel upcalls out to the application and the manager's
// own lifecycle tracking. A delivered cast ends when this returns: the
// channel releases it.
func (m *Manager) deliver(ev appia.Event) {
	switch e := ev.(type) {
	case *group.Quiescent:
		m.state.Lock()
		m.state.quiescentSeen = true
		q := m.state.quiesced
		m.state.Unlock()
		if q != nil {
			select {
			case <-q:
			default:
				close(q)
			}
		}
	case *group.ViewInstall:
		m.state.Lock()
		m.state.dep.View = slices.Clone(e.View.Members)
		m.state.Unlock()
		if m.cfg.OnViewChange != nil {
			m.cfg.OnViewChange(e.View)
		}
	case *group.BlockOk:
		// informational only
	case group.Caster:
		cb := e.CastBase()
		// Stamp the group tag here as well as in the reliable layer: some
		// configurations (FEC) deliver casts without passing group.nak.
		cb.Group = m.cfg.Group
		if m.cfg.OnDeliver != nil {
			m.cfg.OnDeliver(cb)
		}
	}
}

// Send multicasts an application payload on the data channel. During a
// reconfiguration the payload is buffered and re-submitted on the new
// stack, so the application keeps its transparent-adaptation interface.
// With windowing enabled Send blocks (through the group's clock) while
// the send window is full or the scheduler mailbox is saturated; it must
// therefore not be called from the group's own scheduler goroutine
// (delivery callbacks) — use TrySend there. After Close or a group Leave
// it returns ErrGroupClosed.
func (m *Manager) Send(payload []byte) error {
	return m.submit(nil, true, payload)
}

// SendContext is Send bounded by ctx: a blocked send returns ctx.Err()
// once the context is done. (Under a virtual clock a context deadline is
// wall time; prefer Send or TrySend in deterministic runs.)
func (m *Manager) SendContext(ctx context.Context, payload []byte) error {
	return m.submit(ctx, true, payload)
}

// TrySend is the non-blocking Send: it returns ErrWindowFull instead of
// waiting when the send window is exhausted or the mailbox is saturated.
func (m *Manager) TrySend(payload []byte) error {
	return m.submit(nil, false, payload)
}

// submit admits the payload, then places it; a payload that cannot be
// placed gives its credit back.
func (m *Manager) submit(ctx context.Context, wait bool, payload []byte) error {
	c, err := m.admit(ctx, wait, len(payload))
	if err != nil {
		return err
	}
	if err := m.place(heldSend{payload, c}); err != nil {
		m.win.Release(c)
		return err
	}
	return nil
}

// admit takes everything a cast of n bytes needs before it may enter the
// stack, waiting or not as the send mode asks (see flowctl.Windows.Acquire).
func (m *Manager) admit(ctx context.Context, wait bool, n int) (flowctl.Credit, error) {
	m.state.Lock()
	closed, deployed := m.state.closed, m.state.ch != nil
	m.state.Unlock()
	if closed {
		return flowctl.Credit{}, ErrGroupClosed
	}
	if !deployed {
		return flowctl.Credit{}, ErrNotDeployed
	}

	// 1. Send-window credit, held until the reliable layer confirms
	// group-wide delivery (or the payload provably dies with its group),
	// bounding total in-flight retention. A closed window means a closed
	// group.
	c, err := m.win.Acquire(ctx, wait, n)
	if errors.Is(err, flowctl.ErrWindowClosed) {
		err = ErrGroupClosed
	}
	if err != nil {
		return flowctl.Credit{}, err // else ErrWindowFull or the context's error
	}

	// 2. Mailbox admission: the bounded-mailbox gate asserts exactly this
	// external-ingress path; intra-stack and network insertions stay
	// non-blocking (see appia.Scheduler.SetMailboxBounds).
	for gate := m.cfg.Scheduler.AdmitExternal(); gate != nil; gate = m.cfg.Scheduler.AdmitExternal() {
		if !wait {
			err = ErrWindowFull
		} else if ctx != nil {
			err = ctx.Err() // SendContext's contract holds at this gate too
		}
		if err != nil {
			m.win.Release(c)
			return flowctl.Credit{}, err
		}
		flowctl.WaitGate(m.cfg.clock(), gate, ctx) // a nil ctx waits on the gate alone
	}
	return c, nil
}

// place puts an admitted cast on the deployed channel, or — while a
// reconfiguration is underway — in the resubmit buffer, handling the
// teardown races between the two.
func (m *Manager) place(hs heldSend) error {
	var prev *appia.Channel
	for {
		m.state.Lock()
		if m.state.closed {
			m.state.Unlock()
			return ErrGroupClosed
		}
		if m.state.ch == nil {
			m.state.Unlock()
			return ErrNotDeployed
		}
		if m.state.reconfig || m.state.ch == prev {
			// Reconfiguring (or the channel closed under us without the
			// state advancing yet): buffer for resubmission on the new
			// stack. The credit rides along with the buffered payload.
			hs.payload = append([]byte(nil), hs.payload...)
			m.state.buffered = append(m.state.buffered, hs)
			m.state.Unlock()
			return nil
		}
		ch, windowed := m.state.ch, m.state.windowed
		m.state.Unlock()

		err := m.insert(ch, windowed, hs)
		if !errors.Is(err, appia.ErrChannelClosed) {
			return err
		}
		// Raced a teardown: loop to learn whether this was a
		// reconfiguration (buffer) or a close (ErrGroupClosed).
		prev = ch
	}
}

// insert turns one held payload into a CastEvent on ch — the only place that
// happens. On a windowed stack the cast carries its credit to the reliable
// layer; on one without a stability plane the send is fire-and-forget and
// the credit comes straight back. On error the caller still owns the credit.
func (m *Manager) insert(ch *appia.Channel, windowed bool, hs heldSend) error {
	ev := group.NewCastEvent()
	ev.Msg = appia.NewMessage(hs.payload)
	if windowed {
		ev.Credit = hs.Credit
	}
	err := ch.Insert(ev, appia.Down)
	if err == nil && !windowed {
		m.win.Release(hs.Credit)
	}
	return err
}

// Reconfigure performs the full §3.3 procedure synchronously:
//
//  1. stop accepting new sends (buffer them),
//  2. trigger a holding view change on the data channel — the
//     view-synchronous flush leaves every member with the same delivered
//     set and the channel quiescent,
//  3. tear the old channel down,
//  4. build and start the new configuration (fresh epoch port),
//  5. release buffered sends on the new stack.
//
// It must be called from a non-scheduler goroutine (Core spawns one per
// reconfiguration).
func (m *Manager) Reconfigure(d Deployment) error {
	m.state.Lock()
	if d.Epoch <= m.state.dep.Epoch {
		m.state.Unlock()
		return fmt.Errorf("%w: %d <= %d", ErrStaleEpoch, d.Epoch, m.state.dep.Epoch)
	}
	if m.state.ch == nil {
		m.state.Unlock()
		return ErrNotDeployed
	}
	old := m.state.ch
	m.state.reconfig = true
	q := make(chan struct{})
	m.state.quiesced = q
	already := m.state.quiescentSeen
	m.state.Unlock()

	// Quiesce: every node injects the trigger, scoped to the membership
	// Core knows to be alive, so the flush makes progress even if the
	// data channel's own coordinator died. The channel may already be
	// quiescent if another node's flush outran this node's Prepare.
	if !already {
		trigger := &group.TriggerFlush{Hold: true, Members: slices.Clone(d.Members)}
		if err := old.Insert(trigger, appia.Down); err != nil && !errors.Is(err, appia.ErrChannelClosed) {
			m.cfg.logf("stack[%d]: trigger flush: %v", m.cfg.Self, err)
		}
		if !m.cfg.clock().WaitTimeout(q, m.cfg.quiesceTimeout()) {
			m.cfg.logf("stack[%d]: quiescence timeout at epoch %d; force-closing", m.cfg.Self, d.Epoch)
		}
	}
	if err := old.Close(); err != nil {
		m.cfg.logf("stack[%d]: close old channel: %v", m.cfg.Self, err)
	}
	// Rescue casts the old channel's GMS was still holding: a send that
	// raced a *remotely initiated* flush lands in the GMS pending buffer
	// (blocked) before this node's Core has even set the manager to
	// buffering mode, and would otherwise die with the channel. They never
	// reached the reliable layer (so the teardown release above did not
	// cover their credits — each keeps the one its event carries through
	// the buffer), and resubmitting them on the new stack is lossless and
	// duplicate-free. Prepended: they predate everything buffered after the
	// Prepare arrived.
	if rescued := pendingCasts(old); len(rescued) > 0 {
		m.state.Lock()
		m.state.buffered = append(rescued, m.state.buffered...)
		m.state.Unlock()
	}
	// Fold the dead epoch's retention high-water marks into the running
	// aggregate (reading the closed channel's session is safe, as above).
	m.mergeNakStats(old)

	ch, err := m.build(d)
	if err == nil {
		err = ch.Start()
	}
	if err != nil {
		m.finishReconfig(nil, d)
		return err
	}
	ch.WaitReady(m.cfg.quiesceTimeout())
	m.finishReconfig(ch, d)
	return nil
}

// finishReconfig installs the new channel (nil: the rebuild failed) and
// flushes buffered sends through the same insert step a direct Send takes.
// state.reconfig stays set while it does: a concurrent Send keeps landing
// behind the resubmitted casts in state.buffered, and only the lock hold
// that finds the buffer empty lets senders insert directly again — clearing
// the flag first let a direct Send overtake up to a window of buffered
// casts from the same origin.
func (m *Manager) finishReconfig(ch *appia.Channel, d Deployment) {
	m.state.Lock()
	m.state.quiesced = nil
	if m.state.closed {
		// Raced with Close: the group is gone — do not install (that would
		// re-bind its ports); discard the freshly built channel instead.
		// Buffered credits are surrendered with it (the window is closed,
		// the release is bookkeeping only).
		m.state.reconfig = false
		discarded := m.state.buffered
		m.state.buffered = nil
		m.state.Unlock()
		m.releaseHeld(discarded)
		if ch != nil {
			_ = ch.Close()
		}
		return
	}
	if ch == nil {
		// Rebuild failed with the old channel already gone. Keep the
		// buffered sends (including any rescued GMS-pending casts, and
		// their window credits) for the next epoch's attempt rather than
		// dropping them silently, and remember the channel is trivially
		// quiescent so that attempt does not stall on a flush of a closed
		// channel.
		held := len(m.state.buffered)
		m.state.reconfig = false
		m.state.quiescentSeen = true
		m.state.Unlock()
		m.cfg.logf("stack[%d]: epoch %d rebuild failed; holding %d buffered sends for the next deployment",
			m.cfg.Self, d.Epoch, held)
		return
	}
	m.installLocked(ch, d)
	windowed := m.state.windowed
	for len(m.state.buffered) > 0 {
		batch := m.state.buffered
		m.state.buffered = nil
		m.state.Unlock()
		for _, hs := range batch {
			// Credits held through the buffer transfer to the new stack's
			// reliable layer (insert returns them on an unwindowed stack).
			if err := m.insert(ch, windowed, hs); err != nil {
				m.cfg.logf("stack[%d]: resubmit buffered send: %v", m.cfg.Self, err)
				m.win.Release(hs.Credit)
			}
		}
		m.state.Lock()
	}
	m.state.reconfig = false
	m.state.Unlock()
}

// releaseHeld returns the credits of discarded buffered sends.
func (m *Manager) releaseHeld(held []heldSend) {
	for _, hs := range held {
		m.win.Release(hs.Credit)
	}
}

// pendingCasts extracts application casts stranded in a closed channel's GMS
// pending buffer, each with the credit submit stamped on it. Only pure
// CastEvents are rescued: control subtypes (ordering batches, flush traffic)
// are stale the moment the epoch changes and are regenerated by the new
// stack. Reading the session is safe here because Close has completed — the
// closed-channel handoff orders this read after the scheduler's last touch.
func pendingCasts(ch *appia.Channel) []heldSend {
	type pender interface{ Pending() []appia.Event }
	gs, ok := ch.SessionFor("group.gms").(pender)
	if !ok {
		return nil
	}
	var out []heldSend
	for _, ev := range gs.Pending() {
		ce, ok := ev.(*group.CastEvent)
		if !ok || ce.Dest != appia.NoNode || ce.Msg == nil {
			continue
		}
		out = append(out, heldSend{append([]byte(nil), ce.Msg.Bytes()...), ce.Credit})
	}
	return out
}

// Close tears down the current channel and marks the manager closed: an
// in-flight reconfiguration that completes afterwards discards its new
// channel instead of installing it. Sends blocked on the window or
// submitted afterwards fail with ErrGroupClosed.
func (m *Manager) Close() error {
	m.state.Lock()
	ch := m.state.ch
	m.state.ch = nil
	m.state.closed = true
	discarded := m.state.buffered
	m.state.buffered = nil
	m.state.Unlock()
	var err error
	if ch != nil {
		err = ch.Close()
		m.mergeNakStats(ch)
	}
	m.releaseHeld(discarded)
	m.win.Close()
	return err
}

// nakStatser is the stats surface of the reliable layer's session.
type nakStatser interface{ Stats() group.NakStats }

// mergeNakStats folds a (closed) channel's retention marks into the
// running aggregate, exactly once per channel.
func (m *Manager) mergeNakStats(ch *appia.Channel) {
	ns, ok := ch.SessionFor("group.nak").(nakStatser)
	if !ok {
		return
	}
	st := ns.Stats()
	m.state.Lock()
	if m.state.nakMerged != ch {
		m.state.nakBase = m.state.nakBase.Merge(st)
		m.state.nakMerged = ch
	}
	m.state.Unlock()
}

// FlowStats is the manager's flow-control observability surface: the send
// window's credit counters, the group scheduler's mailbox depth marks,
// and the reliable layer's retention high-water marks aggregated across
// configuration epochs. Under a virtual clock every field is a
// deterministic function of the run.
type FlowStats struct {
	Window flowctl.Stats
	// WindowBytes is the byte-denominated window's counters (zero value
	// when byte windowing is disabled).
	WindowBytes      flowctl.Stats
	MailboxDepth     int
	MailboxHighWater int
	Nak              group.NakStats
	// BufferedSends is the resubmit buffer's current length (each entry
	// holds a window credit on windowed stacks).
	BufferedSends int
}

// FlowStats snapshots the group's flow-control state (any goroutine).
func (m *Manager) FlowStats() FlowStats {
	fs := FlowStats{
		Window:           m.win.Msgs.Stats(),
		WindowBytes:      m.win.Bytes.Stats(),
		MailboxDepth:     m.cfg.Scheduler.MailboxDepth(),
		MailboxHighWater: m.cfg.Scheduler.MailboxHighWater(),
	}
	m.state.Lock()
	ch := m.state.ch
	merged := m.state.nakMerged
	fs.Nak = m.state.nakBase
	fs.BufferedSends = len(m.state.buffered)
	m.state.Unlock()
	// During a reconfiguration (and after a failed rebuild) state.ch still
	// points at the torn-down channel whose marks are already folded into
	// nakBase — merging it again would double-count Evicted.
	if ch != nil && ch != merged {
		if ns, ok := ch.SessionFor("group.nak").(nakStatser); ok {
			fs.Nak = fs.Nak.Merge(ns.Stats())
		}
	}
	return fs
}
