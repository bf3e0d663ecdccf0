package group

import (
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"morpheus/internal/appia"
)

// ErrUnboundedNak reports a NakConfig whose negative StableInterval would
// disable stability gossip — the only mechanism bounding the
// retransmission buffers.
var ErrUnboundedNak = errors.New(
	"group: negative StableInterval would disable stability gossip and let retransmission buffers grow without bound")

// CreditReleaser receives send-window credits back as the reliable layer
// observes stability (internal/flowctl.Window implements it; the interface
// keeps this package substrate- and window-implementation-blind).
type CreditReleaser interface {
	Release(n int)
}

// NakConfig configures the reliable FIFO multicast layer.
type NakConfig struct {
	// Self is this node's identifier.
	Self appia.NodeID
	// Group names the group this layer serves on a multi-group node; it is
	// stamped onto delivered casts so cross-group leakage is observable.
	// Empty for single-group (or control) channels.
	Group string
	// InitialMembers seeds the stability peer set until the first view.
	InitialMembers []appia.NodeID
	// NackDelay is how long a gap may stand before a retransmission
	// request is sent to the origin. Zero means 20ms.
	NackDelay time.Duration
	// StableInterval is the period of delivered-vector gossip used to
	// garbage-collect retransmission buffers. Zero means 250ms; Validate
	// rejects negative values.
	StableInterval time.Duration
	// StableEvery, when positive, additionally gossips the delivered
	// vector after every StableEvery-th delivered cast, re-arming the
	// keepalive timer each time. Under sustained traffic the gossip
	// schedule then depends only on the (deterministic) delivery sequence;
	// the timer survives only as a keepalive for idle channels. The timer
	// runs on the channel scheduler's clock, so under the virtual clock
	// plane (internal/clock) even the idle keepalive is deterministic —
	// its former wall-clock ±1-tick measurement residual is gone, and
	// StableEvery is kept purely to bound buffer growth between idle
	// ticks under sustained load.
	StableEvery int
	// Window, when non-nil, receives one credit back for every windowed
	// cast (CastEvent.Windowed) this session originated, once stability
	// gossip shows every peer delivered it — and for every windowed cast
	// still unconfirmed at channel teardown, where the view-synchronous
	// flush has already equalised deliveries. This wires the NAK
	// DeliveredVector watermarks into the per-group send window.
	Window CreditReleaser
	// BytesWindow, when non-nil, receives CastEvent.WindowBytes byte
	// credits back on exactly the same watermarks as Window: stability
	// confirmation, view install, and channel teardown. It wires the
	// byte-denominated send window (flowctl credits per payload byte)
	// through the reliable layer.
	BytesWindow CreditReleaser
	// MaxRetained hard-caps each retention map (own-cast retransmission
	// buffer, per-origin history, per-origin reorder buffer) at this many
	// entries. 0 means uncapped. With send windows active the caps are a
	// defensive backstop — the slowest-peer stability watermark already
	// bounds retention to the members' window sizes — so an eviction
	// (counted in Stats) indicates an accounting bug or an unwindowed
	// flooder. Evicted entries degrade repair (a peer that still needs
	// them must recover via flush or rejoin, exactly as for entries
	// garbage-collected by stability) but never FIFO correctness.
	MaxRetained int
}

// Validate rejects configurations that would disable the only mechanism
// bounding retransmission-buffer growth.
func (c *NakConfig) Validate() error {
	if c.StableInterval < 0 {
		return ErrUnboundedNak
	}
	return nil
}

func (c *NakConfig) nackDelay() time.Duration {
	if c.NackDelay == 0 {
		return 20 * time.Millisecond
	}
	return c.NackDelay
}

func (c *NakConfig) stableInterval() time.Duration {
	if c.StableInterval <= 0 { // negative only if the caller skipped Validate
		return 250 * time.Millisecond
	}
	return c.StableInterval
}

// NakLayer provides reliable, per-origin FIFO multicast on top of any
// best-effort multicast bottom. Losses are detected as sequence gaps and
// repaired with point-to-point NACK retransmissions; delivered-vector
// gossip ("stability") bounds the retransmission buffers. This is the
// "detect and recover" error handling style of paper §2, appropriate at
// small error rates; the fec package provides the masking alternative.
type NakLayer struct {
	appia.BaseLayer
	cfg NakConfig
}

// NewNakLayer returns a reliable FIFO multicast layer.
func NewNakLayer(cfg NakConfig) *NakLayer {
	cfg.InitialMembers = NormalizeMembers(append([]appia.NodeID(nil), cfg.InitialMembers...))
	return &NakLayer{
		BaseLayer: appia.BaseLayer{
			LayerName: "group.nak",
			LayerSpec: appia.LayerSpec{
				Accepts: []appia.EventType{
					appia.T[*CastEvent](),
					appia.T[*Nack](),
					appia.T[*Stable](),
					appia.T[*VectorQuery](),
					appia.T[*ViewInstall](),
					appia.T[*StateTransfer](),
					appia.T[*nackTimeout](),
					appia.T[*stableTick](),
					appia.T[*appia.ChannelInit](),
				},
				Provides: []appia.EventType{
					appia.T[*Nack](),
					appia.T[*Stable](),
					appia.T[*CastEvent](),
				},
			},
		},
		cfg: cfg,
	}
}

// NewSession implements appia.Layer.
func (l *NakLayer) NewSession() appia.Session {
	return &nakSession{
		cfg:      l.cfg,
		members:  l.cfg.InitialMembers,
		recv:     make(map[appia.NodeID]*originState),
		sent:     make(map[uint64]appia.Sendable),
		peerVec:  make(map[appia.NodeID]DeliveredVector),
		windowed: make(map[uint64]int),
		nextSeq:  1,
	}
}

// NakStats are the reliable layer's retention high-water marks: the
// maximum entries ever held in the own-cast retransmission buffer, in the
// per-origin delivered-cast histories (summed over origins), and in the
// per-origin reorder buffers (summed), plus how many entries MaxRetained
// evicted. The marks are monotone and, under a virtual clock, a
// deterministic function of the run. Safe to read from any goroutine.
type NakStats struct {
	SentHighWater    int
	HistoryHighWater int
	BufferHighWater  int
	Evicted          int
}

// Merge returns the pointwise maximum (Evicted sums), for aggregating the
// marks of successive configuration epochs.
func (s NakStats) Merge(o NakStats) NakStats {
	return NakStats{
		SentHighWater:    max(s.SentHighWater, o.SentHighWater),
		HistoryHighWater: max(s.HistoryHighWater, o.HistoryHighWater),
		BufferHighWater:  max(s.BufferHighWater, o.BufferHighWater),
		Evicted:          s.Evicted + o.Evicted,
	}
}

// originState tracks reception from one origin.
type originState struct {
	next      uint64 // next sequence number to deliver
	known     uint64 // highest sequence known to exist (buffered or gossiped)
	buffer    map[uint64]*CastEvent
	events    map[uint64]appia.Event    // full events for re-forwarding
	history   map[uint64]appia.Sendable // delivered casts kept for peers
	nackArmed bool
	nackTries int
	cancel    func()
}

// missing reports whether this origin has sequence numbers we still lack.
func (st *originState) missing() bool {
	return len(st.buffer) > 0 || st.known >= st.next
}

type nakSession struct {
	cfg     NakConfig
	members []appia.NodeID

	nextSeq uint64                    // next sequence number for own casts
	sent    map[uint64]appia.Sendable // retransmission buffer (own casts)
	recv    map[appia.NodeID]*originState
	peerVec map[appia.NodeID]DeliveredVector // last stability vector per peer

	// windowed tracks which of our own seqs hold send-window credits,
	// independently of the sent map (an evicted sent entry must still
	// release its credits when its stability watermark arrives). The value
	// is the cast's byte-window cost (0 with byte windowing disabled);
	// membership alone marks the message credit.
	windowed map[uint64]int

	// Retention accounting: live totals (scheduler goroutine only) and
	// atomic high-water marks readable from any goroutine.
	cntHistory int
	cntBuffer  int
	hwSent     atomic.Int64
	hwHistory  atomic.Int64
	hwBuffer   atomic.Int64
	evicted    atomic.Int64

	stopStable  func()
	sinceGossip int // deliveries since the last stability gossip
}

// Stats snapshots the retention high-water marks (any goroutine).
func (s *nakSession) Stats() NakStats {
	return NakStats{
		SentHighWater:    int(s.hwSent.Load()),
		HistoryHighWater: int(s.hwHistory.Load()),
		BufferHighWater:  int(s.hwBuffer.Load()),
		Evicted:          int(s.evicted.Load()),
	}
}

// bumpHW raises a high-water mark to at least v. Stores race-free because
// only the scheduler goroutine writes them.
func bumpHW(hw *atomic.Int64, v int) {
	if int64(v) > hw.Load() {
		hw.Store(int64(v))
	}
}

var _ appia.Session = (*nakSession)(nil)

// Handle implements appia.Session.
func (s *nakSession) Handle(ch *appia.Channel, ev appia.Event) {
	// Events embedding CastEvent (Propose, Install, OrderEv, application
	// subtypes...) must take the cast path regardless of concrete type; a
	// type switch alone cannot express that.
	if c, ok := ev.(Caster); ok {
		s.processCast(ch, c.CastBase(), ev)
		return
	}
	switch e := ev.(type) {
	case *appia.ChannelInit:
		s.armStable(ch)
		ch.Forward(ev)
	case *appia.ChannelClose:
		if s.stopStable != nil {
			s.stopStable()
		}
		for _, st := range s.recv {
			if st.cancel != nil {
				st.cancel()
			}
		}
		// Teardown releases every credit this channel still holds: the
		// view-synchronous flush that precedes a reconfiguration has
		// equalised deliveries (and a force-closed channel's casts are
		// gone either way — holding their credits would leak the
		// window). Casts still buffered above in the GMS keep their
		// credits: the stack manager rescues and resubmits them.
		s.releaseAllWindowed()
		ch.Forward(ev)
	case *Nack:
		s.handleNack(ch, e)
	case *Stable:
		s.handleStable(ch, e)
	case *VectorQuery:
		e.Vector = s.deliveredVector()
		ch.Bounce(ev)
	case *ViewInstall:
		s.handleView(ch, e)
	case *StateTransfer:
		s.handleStateTransfer(ch, e)
	case *nackTimeout:
		s.fireNack(ch, e.origin)
	case *stableTick:
		s.gossipStable(ch)
		s.armStable(ch)
	default:
		ch.Forward(ev)
	}
}

func (s *nakSession) processCast(ch *appia.Channel, base *CastEvent, ev appia.Event) {
	if base.Dir() == appia.Down {
		s.sendCast(ch, base, ev)
		return
	}
	s.receiveCast(ch, base, ev)
}

// sendCast stamps, stores, self-delivers and spreads an outgoing cast.
func (s *nakSession) sendCast(ch *appia.Channel, base *CastEvent, ev appia.Event) {
	if base.Dest != appia.NoNode {
		// Addressed cast (a retransmission we produced below, or targeted
		// control): pass through untouched.
		ch.Forward(ev)
		return
	}
	if ch.State() == appia.ChannelClosed {
		// Teardown debris: a cast that raced Close into the mailbox (the
		// GMS forwards instead of pending these once stopped). The epoch
		// is dead — transmitting, buffering or self-delivering it would
		// all be wasted — so drop it here and return its credits, the one
		// thing that must not die with the channel.
		if base.Windowed {
			s.releaseCredits(1, base.WindowBytes)
		}
		return
	}
	seq := s.nextSeq
	s.nextSeq++
	m := base.EnsureMsg()
	m.PushUvarint(seq)
	m.PushUvarint(uint64(uint32(s.cfg.Self)))

	sendable, ok := ev.(appia.Sendable)
	if !ok {
		// Unreachable: anything embedding CastEvent is Sendable.
		return
	}
	// Retransmission buffer keeps a full clone, preserving the concrete
	// type so a retransmitted Propose still decodes as a Propose.
	s.sent[seq] = appia.CloneSendable(sendable)
	if base.Windowed && (s.cfg.Window != nil || s.cfg.BytesWindow != nil) {
		s.windowed[seq] = base.WindowBytes
	}
	bumpHW(&s.hwSent, len(s.sent))
	if cap := s.cfg.MaxRetained; cap > 0 && len(s.sent) > cap {
		// Evict the oldest entry: it is the closest to its stability
		// watermark, and handleNack already treats a missing entry as
		// "garbage collected — recover via flush".
		s.evictLowest(s.sent)
	}

	// Self-delivery: our own casts are in-order by construction, so they
	// skip the gap machinery and go straight up, looking exactly like a
	// delivered remote cast (headers popped, Origin/Seq set).
	st := s.origin(s.cfg.Self)
	if st.next == seq {
		st.next++
	}
	selfCopy := appia.CloneSendable(sendable)
	scb := selfCopy.SendableBase()
	scb.Source = s.cfg.Self
	sm := scb.Msg
	if _, err := sm.PopUvarint(); err != nil { // origin
		return
	}
	if _, err := sm.PopUvarint(); err != nil { // seq
		return
	}
	if c, ok := selfCopy.(Caster); ok {
		cb := c.CastBase()
		cb.Origin = s.cfg.Self
		cb.Seq = seq
		cb.Group = s.cfg.Group
	}
	sess := appia.Session(s)
	_ = ch.SendFrom(sess, selfCopy, appia.Up)
	s.countDelivery(ch)

	ch.Forward(ev)
}

// receiveCast handles an incoming (or self-copied) cast: pop headers,
// dedupe, deliver in per-origin order.
func (s *nakSession) receiveCast(ch *appia.Channel, base *CastEvent, ev appia.Event) {
	m := base.EnsureMsg()
	o, err := m.PopUvarint()
	if err != nil {
		return // corrupt: drop
	}
	seq, err := m.PopUvarint()
	if err != nil {
		return
	}
	origin := appia.NodeID(uint32(o))
	base.Origin = origin
	base.Seq = seq
	base.Group = s.cfg.Group

	st := s.origin(origin)
	if seq > st.known {
		st.known = seq
	}
	switch {
	case seq < st.next:
		return // duplicate
	case seq == st.next:
		st.next++
		s.storeHistory(st, origin, seq, ev)
		ch.Forward(ev)
		s.countDelivery(ch)
		s.drain(ch, origin, st)
	default:
		if _, dup := st.buffer[seq]; !dup {
			// Buffer the event itself; we re-forward it when the gap
			// closes. Keep only the base pointer: forwarding needs the
			// original ev, so store via map of event.
			st.buffer[seq] = base
			s.bufferEv(st, seq, ev)
			s.cntBuffer++
			bumpHW(&s.hwBuffer, s.cntBuffer)
			if cap := s.cfg.MaxRetained; cap > 0 && len(st.buffer) > cap {
				// Evict the HIGHEST buffered seq: the lowest entries are
				// what closes the gap, and st.known already records the
				// evicted seq's existence, so the NACK rotation will
				// re-request it once the gap in front has drained.
				var high uint64
				for q := range st.buffer {
					if q > high {
						high = q
					}
				}
				delete(st.buffer, high)
				delete(st.events, high)
				s.cntBuffer--
				s.evicted.Add(1)
			}
		}
		s.armNack(ch, origin, st)
	}
}

// bufferedEvs maps the buffered base cast to the full event for
// re-forwarding. To avoid a second map we piggyback on originState.
func (s *nakSession) bufferEv(st *originState, seq uint64, ev appia.Event) {
	if st.events == nil {
		st.events = make(map[uint64]appia.Event)
	}
	st.events[seq] = ev
}

// drain delivers any buffered casts that are now in order.
func (s *nakSession) drain(ch *appia.Channel, origin appia.NodeID, st *originState) {
	for {
		ev, ok := st.events[st.next]
		if !ok {
			break
		}
		seq := st.next
		delete(st.events, seq)
		delete(st.buffer, seq)
		s.cntBuffer--
		st.next++
		s.storeHistory(st, origin, seq, ev)
		ch.Forward(ev)
		s.countDelivery(ch)
	}
	if !st.missing() {
		if st.cancel != nil {
			st.cancel()
			st.cancel = nil
		}
		st.nackArmed = false
		st.nackTries = 0
	}
}

// storeHistory keeps a wire-shaped clone of a delivered cast so this node
// can retransmit on behalf of a crashed or partitioned origin. The clone
// re-acquires the origin/seq headers popped during reception. History is
// pruned by the same stability watermarks as the send buffer.
func (s *nakSession) storeHistory(st *originState, origin appia.NodeID, seq uint64, ev appia.Event) {
	sendable, ok := ev.(appia.Sendable)
	if !ok {
		return
	}
	cp := appia.CloneSendable(sendable)
	m := cp.SendableBase().EnsureMsg()
	m.PushUvarint(seq)
	m.PushUvarint(uint64(uint32(origin)))
	if st.history == nil {
		st.history = make(map[uint64]appia.Sendable)
	}
	if _, dup := st.history[seq]; !dup {
		s.cntHistory++
	}
	st.history[seq] = cp
	bumpHW(&s.hwHistory, s.cntHistory)
	if cap := s.cfg.MaxRetained; cap > 0 && len(st.history) > cap {
		s.evictLowest(st.history)
		s.cntHistory--
	}
}

// evictLowest drops the lowest-sequence entry of a retention map and
// counts the eviction.
func (s *nakSession) evictLowest(m map[uint64]appia.Sendable) {
	var low uint64
	first := true
	for seq := range m {
		if first || seq < low {
			low, first = seq, false
		}
	}
	if !first {
		delete(m, low)
		s.evicted.Add(1)
	}
}

// armNack schedules a retransmission request for the lowest gap.
func (s *nakSession) armNack(ch *appia.Channel, origin appia.NodeID, st *originState) {
	if st.nackArmed {
		return
	}
	if len(s.members) == 1 && s.members[0] == s.cfg.Self && origin != s.cfg.Self {
		// Pre-admission singleton (a JoinVia bootstrap whose state transfer
		// has not landed yet): a remote cast racing ahead of the transfer
		// looks like a giant gap from sequence 1, but the frontier the
		// transfer carries is about to close it wholesale — NACKing now
		// would demand a history replay the join protocol exists to avoid.
		return
	}
	st.nackArmed = true
	sess := appia.Session(s)
	st.cancel = ch.DeliverAfter(s.cfg.nackDelay(), sess, &nackTimeout{origin: origin})
}

// fireNack sends the NACK for the current gap, if any, and rearms. The
// first requests go to the origin; if it stays silent (crashed,
// partitioned), subsequent requests rotate through the other members,
// which keep a retransmission history for exactly this purpose.
func (s *nakSession) fireNack(ch *appia.Channel, origin appia.NodeID) {
	st := s.origin(origin)
	st.nackArmed = false
	st.cancel = nil
	if !st.missing() {
		return // gap closed meanwhile
	}
	// Request up to the first buffered message, or — when nothing is
	// buffered and the gap is known only from stability gossip — up to the
	// gossiped high-water mark.
	to := st.known
	for seq := range st.buffer {
		if seq-1 < to {
			to = seq - 1
		}
	}
	if to < st.next {
		// Everything below the buffer is here; the buffer itself cannot
		// drain yet only if a middle gap exists, which the loop above
		// would have found. Nothing to request.
		s.armNack(ch, origin, st)
		return
	}
	target := s.nackTarget(origin, st.nackTries)
	st.nackTries++
	n := &Nack{Origin: origin, From: st.next, To: to}
	n.Dest = target
	n.Class = appia.ClassControl
	m := n.EnsureMsg()
	m.PushUvarint(n.To)
	m.PushUvarint(n.From)
	m.PushUvarint(uint64(uint32(origin)))
	sess := appia.Session(s)
	_ = ch.SendFrom(sess, n, appia.Down)
	// Rearm in case the retransmission is itself lost.
	s.armNack(ch, origin, st)
}

// nackTarget picks whom to ask on the given retry round: the origin first
// (twice, since it is the most likely holder), then a rotation over every
// member including the origin, so requests keep reaching it even when
// intermediate peers cannot help.
func (s *nakSession) nackTarget(origin appia.NodeID, tries int) appia.NodeID {
	if tries < 2 {
		return origin
	}
	candidates := []appia.NodeID{origin}
	for _, m := range s.members {
		if m != s.cfg.Self && m != origin {
			candidates = append(candidates, m)
		}
	}
	return candidates[(tries-2)%len(candidates)]
}

// handleNack answers a retransmission request from our buffer.
func (s *nakSession) handleNack(ch *appia.Channel, e *Nack) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	m := e.EnsureMsg()
	o, err1 := m.PopUvarint()
	from, err2 := m.PopUvarint()
	to, err3 := m.PopUvarint()
	if err1 != nil || err2 != nil || err3 != nil {
		return
	}
	origin := appia.NodeID(uint32(o))
	requester := e.SendableBase().Source
	sess := appia.Session(s)
	lookup := func(seq uint64) (appia.Sendable, bool) {
		if origin == s.cfg.Self {
			st, ok := s.sent[seq]
			return st, ok
		}
		ost, ok := s.recv[origin]
		if !ok || ost.history == nil {
			return nil, false
		}
		st, ok := ost.history[seq]
		return st, ok
	}
	for seq := from; seq <= to; seq++ {
		stored, ok := lookup(seq)
		if !ok {
			continue // already garbage collected: peer must rejoin via flush
		}
		cp := appia.CloneSendable(stored)
		cb := cp.SendableBase()
		cb.Dest = requester
		cb.Class = appia.ClassControl
		_ = ch.SendFrom(sess, cp, appia.Down)
	}
}

// armStable (re-)schedules the stability keepalive on the scheduler's
// clock (virtual under the deterministic time plane, wall otherwise).
func (s *nakSession) armStable(ch *appia.Channel) {
	if s.stopStable != nil {
		s.stopStable()
	}
	sess := appia.Session(s)
	s.stopStable = ch.DeliverAfter(s.cfg.stableInterval(), sess, &stableTick{})
}

// countDelivery advances the delivery-driven gossip schedule: with
// StableEvery set, every StableEvery-th delivered cast gossips immediately
// and pushes the idle keepalive back, so under load the gossip points
// are a pure function of the delivery sequence.
func (s *nakSession) countDelivery(ch *appia.Channel) {
	if s.cfg.StableEvery <= 0 {
		return
	}
	s.sinceGossip++
	if s.sinceGossip >= s.cfg.StableEvery {
		s.gossipStable(ch)
		s.armStable(ch)
	}
}

// gossipStable multicasts our delivered vector. The gossiper's identity
// travels as a message header rather than relying on the substrate-level
// Source: relaying bottoms (Mecho's echo, epidemic forwarding) re-stamp
// Source with the forwarder, which used to file a relayed peer's vector
// under the relay's key — so on relayed stacks the stability view never
// covered every member and the retransmission buffers never pruned (the
// silent unbounded-memory leak this PR's flow-control plane surfaced as a
// hard credit stall).
func (s *nakSession) gossipStable(ch *appia.Channel) {
	s.sinceGossip = 0
	st := &Stable{Vector: s.deliveredVector()}
	st.Class = appia.ClassControl
	m := st.EnsureMsg()
	st.Vector.push(m)
	m.PushUvarint(uint64(uint32(s.cfg.Self)))
	sess := appia.Session(s)
	_ = ch.SendFrom(sess, st, appia.Down)
	// Gossip points double as local prune points: our own vector just
	// advanced, and for a single-member group (no peers to ever gossip
	// back) this is the only trigger that retires sent entries and their
	// send-window credits.
	s.prune()
}

// handleStable records a peer vector and prunes the send buffer.
func (s *nakSession) handleStable(ch *appia.Channel, e *Stable) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	m := e.EnsureMsg()
	o, err := m.PopUvarint()
	if err != nil {
		return
	}
	vec, err := popVector(m)
	if err != nil {
		return
	}
	gossiper := appia.NodeID(uint32(o))
	s.peerVec[gossiper] = vec
	// Stability gossip doubles as loss advertisement: a peer that has
	// delivered seq k from some origin proves k exists, so if we are
	// behind we can request a repair — this is the only way to recover a
	// lost *final* message, which no subsequent gap would ever reveal.
	// Iterate in sorted origin order: armNack registers timers, and under
	// the virtual clock same-deadline timers fire in registration order —
	// map-order iteration here would be the run's only nondeterminism.
	for _, origin := range vec.SortedOrigins() {
		if origin == s.cfg.Self {
			continue
		}
		high := vec[origin]
		st := s.origin(origin)
		if high > st.known {
			st.known = high
		}
		if st.missing() {
			s.armNack(ch, origin, st)
		}
	}
	s.prune()
}

// releaseCredits returns n message credits and b byte credits to their
// respective windows (either may be absent).
func (s *nakSession) releaseCredits(n, b int) {
	if n > 0 && s.cfg.Window != nil {
		s.cfg.Window.Release(n)
	}
	if b > 0 && s.cfg.BytesWindow != nil {
		s.cfg.BytesWindow.Release(b)
	}
}

// releaseAllWindowed returns every credit the session still holds (channel
// teardown, view install).
func (s *nakSession) releaseAllWindowed() {
	if len(s.windowed) == 0 {
		return
	}
	bytes := 0
	for _, b := range s.windowed {
		bytes += b
	}
	s.releaseCredits(len(s.windowed), bytes)
	s.windowed = make(map[uint64]int)
}

// prune drops send-buffer and history entries that every member has
// delivered.
func (s *nakSession) prune() {
	mine := s.deliveredVector()
	stableFor := func(origin appia.NodeID) (uint64, bool) {
		min := mine[origin]
		for _, m := range s.members {
			if m == s.cfg.Self {
				continue
			}
			vec, ok := s.peerVec[m]
			if !ok {
				return 0, false // unknown peer state: keep everything
			}
			if vec[origin] < min {
				min = vec[origin]
			}
		}
		return min, true
	}
	if len(s.sent) > 0 || len(s.windowed) > 0 {
		if min, ok := stableFor(s.cfg.Self); ok {
			for seq := range s.sent {
				if seq <= min {
					delete(s.sent, seq)
				}
			}
			// Credits return on the same watermark that prunes the send
			// buffer: a windowed cast every member has delivered no longer
			// occupies the group's send window. The windowed set survives
			// MaxRetained evictions of sent entries, so a credit is never
			// lost to the cap.
			released, releasedBytes := 0, 0
			for seq, bytes := range s.windowed {
				if seq <= min {
					delete(s.windowed, seq)
					released++
					releasedBytes += bytes
				}
			}
			if released > 0 {
				s.releaseCredits(released, releasedBytes)
			}
		}
	}
	for origin, st := range s.recv {
		if len(st.history) == 0 {
			continue
		}
		min, ok := stableFor(origin)
		if !ok {
			continue
		}
		for seq := range st.history {
			if seq <= min {
				delete(st.history, seq)
				s.cntHistory--
			}
		}
	}
}

// handleView adopts a new membership: forget excluded origins and their
// pending gaps (the flush protocol has already equalised deliveries among
// survivors).
func (s *nakSession) handleView(ch *appia.Channel, e *ViewInstall) {
	if e.Dir() != appia.Down {
		ch.Forward(e)
		return
	}
	s.members = e.View.Members
	for origin, st := range s.recv {
		if !e.View.Contains(origin) {
			if st.cancel != nil {
				st.cancel()
			}
			s.cntHistory -= len(st.history)
			s.cntBuffer -= len(st.buffer)
			delete(s.recv, origin)
		}
	}
	for peer := range s.peerVec {
		if !e.View.Contains(peer) {
			delete(s.peerVec, peer)
		}
	}
	// A view installs only after the flush reports converged: every
	// surviving member has delivered every cast we originated (our own
	// report pins origin=self at nextSeq−1, and convergence makes all
	// reports equal). Windowed application casts cannot slip in after
	// the report snapshot — the GMS blocks them — so every held credit
	// is provably stable and returns here wholesale. This is also what
	// promptly unblocks senders stalled on a partitioned peer: the
	// eviction's view change is the release. (The sent/history maps
	// keep stability-based pruning: control casts issued mid-flush,
	// such as the Install itself, may still need retransmitting.)
	s.releaseAllWindowed()
	ch.Forward(e) // the best-effort bottom needs it too
}

// handleStateTransfer bootstraps reception state on a joiner.
func (s *nakSession) handleStateTransfer(ch *appia.Channel, e *StateTransfer) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	// Headers: view, vector (pushed by GMS on the coordinator).
	m := e.EnsureMsg()
	v, err := popView(m)
	if err != nil {
		return
	}
	vec, err := popVector(m)
	if err != nil {
		return
	}
	e.NewView = v
	e.Vector = vec
	// Adopt the membership before arming any repair: until the GMS above
	// commits the view and its ViewInstall travels back down, the session
	// still looks like a pre-admission singleton, which armNack refuses.
	s.members = append([]appia.NodeID(nil), v.Members...)
	for _, origin := range vec.SortedOrigins() {
		next := vec[origin]
		if origin == s.cfg.Self {
			// Sequence-space continuity on rejoin: if the group has already
			// delivered casts under our identifier (a previous incarnation
			// that left and came back), never reuse those numbers — peers
			// would drop the fresh casts as duplicates.
			if s.nextSeq < next+1 {
				s.nextSeq = next + 1
			}
			continue
		}
		st := s.origin(origin)
		if st.next < next+1 {
			st.next = next + 1
		}
		// Casts below the frontier were delivered (and stabilised) by the
		// running group before we existed: they are not gaps to repair.
		// Casts at or above it may already sit in the reorder buffer — a
		// multicast can race ahead of the point-to-point transfer — so
		// drain what is now in order and arm repair for what is not.
		for seq := range st.buffer {
			if seq < st.next {
				delete(st.buffer, seq)
				delete(st.events, seq)
				s.cntBuffer--
			}
		}
		s.drain(ch, origin, st)
		if st.missing() {
			s.armNack(ch, origin, st)
		}
	}
	ch.Forward(e) // GMS above also consumes it
}

// origin returns (allocating) the reception state for an origin.
func (s *nakSession) origin(id appia.NodeID) *originState {
	st, ok := s.recv[id]
	if !ok {
		st = &originState{next: 1, buffer: make(map[uint64]*CastEvent)}
		s.recv[id] = st
	}
	return st
}

// deliveredVector snapshots the per-origin contiguous delivery watermark.
func (s *nakSession) deliveredVector() DeliveredVector {
	dv := make(DeliveredVector, len(s.recv)+1)
	for origin, st := range s.recv {
		if st.next > 1 {
			dv[origin] = st.next - 1
		}
	}
	// Our own casts count as delivered up to nextSeq-1 (self-delivery is
	// immediate).
	if s.nextSeq > 1 {
		if cur, ok := dv[s.cfg.Self]; !ok || cur < s.nextSeq-1 {
			dv[s.cfg.Self] = s.nextSeq - 1
		}
	}
	return dv
}

// sortedGaps returns buffered-but-undeliverable seqs per origin (tests).
func (s *nakSession) sortedGaps(origin appia.NodeID) []uint64 {
	st, ok := s.recv[origin]
	if !ok {
		return nil
	}
	out := make([]uint64, 0, len(st.buffer))
	for seq := range st.buffer {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
