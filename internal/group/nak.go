package group

import (
	"errors"
	"sync/atomic"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/flowctl"
)

// ErrUnboundedNak reports a NakConfig whose negative StableInterval would
// disable stability gossip — the only mechanism bounding the
// retransmission buffers.
var ErrUnboundedNak = errors.New(
	"group: negative StableInterval would disable stability gossip and let retransmission buffers grow without bound")

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
	// Credits, when non-nil, receives back the CastEvent.Credit of every cast
	// this session originated, once stability gossip shows every peer
	// delivered it — and of every cast still unconfirmed at a view install
	// or at channel teardown, where the view-synchronous flush has already
	// equalised deliveries. This wires the NAK DeliveredVector watermarks
	// into the per-group send windows.
	Credits flowctl.Releaser
	// MaxRetained hard-caps each retention ring: the own-cast buffer and
	// each per-origin history hold at most this many payloads (oldest
	// dropped first), each per-origin reorder buffer only casts fewer than
	// this many sequence numbers ahead of the next delivery. 0 means
	// uncapped (the reorder span then falls back to maxReorderSpan). With
	// send windows active the caps are a defensive backstop — the
	// slowest-peer stability watermark already bounds retention to the
	// members' window sizes — so an eviction (counted in Stats) indicates
	// an accounting bug or an unwindowed flooder. Evicted entries degrade
	// repair (a peer that still needs them must recover via flush or
	// rejoin, exactly as for entries garbage-collected by stability) but
	// never FIFO correctness.
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

// maxReorderSpan bounds a reorder ring when MaxRetained does not: the slot a
// buffered cast takes is chosen by a sequence number read off a datagram,
// so a corrupt far-future seq must not size an allocation.
const maxReorderSpan = 1 << 16

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
		cfg:     l.cfg,
		members: l.cfg.InitialMembers,
		sent:    seqRing[sentSlot]{drop: sentSlot.Release}, // the embedded Retained's
		recv:    make(map[appia.NodeID]*originState),
		peerVec: make(map[appia.NodeID]DeliveredVector),
		nextSeq: 1,
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
	next      uint64                  // next sequence number to deliver
	known     uint64                  // highest sequence known to exist (received or gossiped)
	reorder   seqRing[heldCast]       // casts received ahead of next, re-forwarded when the gap closes
	history   seqRing[appia.Retained] // delivered casts kept, wire-shaped, for peers
	nackTries int
	cancel    func() // stops the armed NACK timer; nil while none is armed
}

// heldCast is a received cast and the capture taken of it before its
// origin/seq headers were popped: already wire-shaped, the capture becomes
// the history entry when the cast is delivered.
type heldCast struct {
	ev   Caster
	wire appia.Retained
}

// release ends a cast that will not be delivered (a duplicate, one too far
// ahead, one a view change or state transfer made moot).
func (hc heldCast) release() {
	hc.wire.Release()
	appia.ReleaseEvent(hc.ev)
}

// missing reports whether this origin has sequence numbers we still lack.
// A buffered cast is always at or above next and was recorded in known on
// arrival, so known alone decides.
func (st *originState) missing() bool {
	return st.known >= st.next
}

// sentSlot is one own cast awaiting stability: the retransmission payload
// (kept with its concrete type, so a retransmitted Propose still decodes as a
// Propose) and the send-window credit the cast holds. A MaxRetained eviction
// drops the payload only; the slot and its credit stay until the stability
// watermark (or a view install, or teardown) releases them, so a credit is
// never lost to the cap.
type sentSlot struct {
	appia.Retained
	flowctl.Credit
}

type nakSession struct {
	cfg     NakConfig
	members []appia.NodeID

	nextSeq uint64            // next sequence number for own casts
	sent    seqRing[sentSlot] // own casts not yet stable; end == nextSeq
	recv    map[appia.NodeID]*originState
	peerVec map[appia.NodeID]DeliveredVector // last stability vector per peer

	// Retention accounting: payload totals (scheduler goroutine only) and
	// atomic high-water marks readable from any goroutine. The sent ring's
	// payloads are always its cntSent highest slots (eviction drops the
	// lowest payload, stability the lowest slots).
	cntSent    int
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
		if c.CastBase().Dir() == appia.Down {
			s.sendCast(ch, c)
		} else {
			s.receiveCast(ch, c)
		}
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
		s.releaseSent(s.nextSeq)
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

// sendCast stamps, stores, self-delivers and spreads an outgoing cast.
func (s *nakSession) sendCast(ch *appia.Channel, ev Caster) {
	base := ev.CastBase()
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
		// all be wasted — so drop it here and return its credit, the one
		// thing that must not die with the channel.
		s.release(base.Credit)
		appia.ReleaseEvent(ev)
		return
	}
	seq := s.nextSeq
	s.nextSeq++
	m := base.EnsureMsg()
	m.PushUvarint(seq)
	m.PushUvarint(uint64(uint32(s.cfg.Self)))

	s.sent.put(seq, sentSlot{appia.Retain(ev), base.Credit})
	s.cntSent++
	bumpHW(&s.hwSent, s.cntSent)
	if cap := s.cfg.MaxRetained; cap > 0 && s.cntSent > cap {
		// Evict the oldest payload: it is the closest to its stability
		// watermark, and handleNack already treats a missing entry as
		// "garbage collected — recover via flush".
		low := s.nextSeq - uint64(s.cntSent)
		evicted := s.sent.get(low)
		evicted.Retained.Release()
		evicted.Retained = appia.Retained{}
		s.sent.put(low, evicted)
		s.cntSent--
		s.evicted.Add(1)
	}

	// Self-delivery: our own casts are in-order by construction, so they
	// skip the gap machinery and go straight up, looking exactly like a
	// delivered remote cast (headers popped, Origin/Seq set).
	st := s.origin(s.cfg.Self)
	if st.next == seq {
		st.next++
	}
	selfCopy := appia.CloneSendable(ev)
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
func (s *nakSession) receiveCast(ch *appia.Channel, ev Caster) {
	base := ev.CastBase()
	m := base.EnsureMsg()
	hc := heldCast{ev, appia.Retain(ev)}
	o, err := m.PopUvarint()
	if err != nil {
		hc.release()
		return // corrupt: drop
	}
	seq, err := m.PopUvarint()
	if err != nil {
		hc.release()
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
		hc.release() // duplicate
		return
	case seq == st.next:
		s.deliver(ch, st, hc)
	default:
		span := uint64(maxReorderSpan)
		if s.cfg.MaxRetained > 0 {
			span = uint64(s.cfg.MaxRetained)
		}
		switch {
		case seq-st.next >= span:
			// Refuse a cast too far ahead to buffer: the lowest entries are
			// what closes the gap, and st.known already records the refused
			// seq's existence, so the NACK rotation will re-request it once
			// the gap in front has drained.
			s.evicted.Add(1)
			hc.release()
		case st.reorder.get(seq) == heldCast{}:
			// Buffer the event itself; we re-forward it when the gap
			// closes.
			st.reorder.advance(st.next)
			st.reorder.put(seq, hc)
			s.cntBuffer++
			bumpHW(&s.hwBuffer, s.cntBuffer)
		default:
			hc.release() // already buffered
		}
		s.armNack(ch, origin, st)
	}
}

// takeBuffered removes the buffered cast at st.next (the zero heldCast if it
// is still missing).
func (s *nakSession) takeBuffered(st *originState) heldCast {
	hc := st.reorder.take(st.next)
	if hc.ev != nil {
		s.cntBuffer--
	}
	return hc
}

// deliver hands up hc, the cast at st.next (zero if it is still missing), and
// behind it every buffered cast that is now in order.
func (s *nakSession) deliver(ch *appia.Channel, st *originState, hc heldCast) {
	for ; hc.ev != nil; hc = s.takeBuffered(st) {
		s.storeHistory(st, st.next, hc.wire)
		st.next++
		ch.Forward(hc.ev)
		s.countDelivery(ch)
	}
	if !st.missing() {
		if st.cancel != nil {
			st.cancel()
			st.cancel = nil
		}
		st.nackTries = 0
	}
}

// storeHistory keeps the wire-shaped capture of a delivered cast so this node
// can retransmit on behalf of a crashed or partitioned origin. History is
// pruned by the same stability watermarks as the send buffer.
func (s *nakSession) storeHistory(st *originState, seq uint64, wire appia.Retained) {
	st.history.put(seq, wire)
	s.cntHistory++
	bumpHW(&s.hwHistory, s.cntHistory)
	if cap := s.cfg.MaxRetained; cap > 0 && st.history.live > cap {
		// History is stored in delivery order, so its payloads are the
		// consecutive seqs below end: keep the newest cap of them.
		s.cntHistory -= st.history.advance(st.history.end - uint64(cap))
		s.evicted.Add(1)
	}
}

// armNack schedules a retransmission request for the lowest gap.
func (s *nakSession) armNack(ch *appia.Channel, origin appia.NodeID, st *originState) {
	if st.cancel != nil {
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
	sess := appia.Session(s)
	st.cancel = ch.DeliverAfter(s.cfg.nackDelay(), sess, &nackTimeout{origin: origin})
}

// fireNack sends the NACK for the current gap, if any, and rearms. The
// first requests go to the origin; if it stays silent (crashed,
// partitioned), subsequent requests rotate through the other members,
// which keep a retransmission history for exactly this purpose.
func (s *nakSession) fireNack(ch *appia.Channel, origin appia.NodeID) {
	st := s.origin(origin)
	st.cancel = nil
	if !st.missing() {
		return // gap closed meanwhile
	}
	// Request up to the first buffered message, or — when nothing is
	// buffered and the gap is known only from stability gossip — up to the
	// gossiped high-water mark. Either bound is at or above next: known
	// because missing() holds, a buffered cast because it would otherwise
	// have been delivered.
	to := st.known
	if low, ok := st.reorder.first(); ok && low-1 < to {
		to = low - 1
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
	// from and to come straight off the datagram: walk only what the ring
	// retains of the range, never the range itself.
	var ost *originState
	lo, hi := s.sent.clamp(from, to)
	if origin != s.cfg.Self {
		if ost = s.recv[origin]; ost == nil {
			return
		}
		lo, hi = ost.history.clamp(from, to)
	}
	for seq := lo; seq < hi; seq++ {
		stored := s.sent.get(seq).Retained
		if ost != nil {
			stored = ost.history.get(seq)
		}
		if stored == (appia.Retained{}) {
			continue // already garbage collected: peer must rejoin via flush
		}
		// Rebuilt from the ring's own clone: the transport releasing this
		// event leaves the retained bytes intact for the next request.
		cp := stored.Event()
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

// release returns c to the group's send windows (there may be none, and c
// may hold nothing).
func (s *nakSession) release(c flowctl.Credit) {
	if s.cfg.Credits != nil && c != (flowctl.Credit{}) {
		s.cfg.Credits.Release(c)
	}
}

// releaseSent returns the credits held by own casts up to and including
// upTo; the slots keep their payloads.
func (s *nakSession) releaseSent(upTo uint64) {
	var sum flowctl.Credit
	lo, hi := s.sent.clamp(0, upTo)
	for seq := lo; seq < hi; seq++ {
		if slot := s.sent.get(seq); slot.Credit != (flowctl.Credit{}) {
			sum.Msgs += slot.Msgs
			sum.Bytes += slot.Bytes
			s.sent.put(seq, sentSlot{Retained: slot.Retained})
		}
	}
	s.release(sum)
}

// retireSent drops own casts up to and including upTo, which every member
// has delivered. Credits return on the same watermark that prunes the send
// buffer: a windowed cast every member has delivered no longer occupies the
// group's send window.
func (s *nakSession) retireSent(upTo uint64) {
	s.releaseSent(upTo)
	s.sent.advance(upTo + 1)
	s.cntSent = min(s.cntSent, int(s.sent.end-s.sent.base))
}

// stableFor returns the highest sequence number from origin that every
// member has delivered, or false while some peer's vector is unknown.
func (s *nakSession) stableFor(origin appia.NodeID) (uint64, bool) {
	low := s.delivered(origin)
	for _, m := range s.members {
		if m == s.cfg.Self {
			continue
		}
		vec, ok := s.peerVec[m]
		if !ok {
			return 0, false // unknown peer state: keep everything
		}
		low = min(low, vec[origin])
	}
	return low, true
}

// prune drops send-buffer and history entries that every member has
// delivered.
func (s *nakSession) prune() {
	if s.sent.live > 0 {
		if low, ok := s.stableFor(s.cfg.Self); ok {
			s.retireSent(low)
		}
	}
	for origin, st := range s.recv {
		if st.history.live == 0 {
			continue
		}
		if low, ok := s.stableFor(origin); ok {
			s.cntHistory -= st.history.advance(low + 1)
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
			s.cntHistory -= st.history.advance(st.history.end)
			s.cntBuffer -= st.reorder.advance(st.reorder.end)
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
	// eviction's view change is the release. (The sent/history rings
	// keep stability-based pruning: control casts issued mid-flush,
	// such as the Install itself, may still need retransmitting.)
	s.releaseSent(s.nextSeq)
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
			// would drop the fresh casts as duplicates. Anything we cast
			// below the frontier is stable, so the sent ring restarts there.
			if s.nextSeq < next+1 {
				s.retireSent(next)
				s.nextSeq = next + 1
			}
			continue
		}
		st := s.origin(origin)
		// Casts below the frontier were delivered (and stabilised) by the
		// running group before we existed: they are not gaps to repair, and
		// history kept from before the jump is nothing a peer can still
		// need. Casts at or above it may already sit in the reorder buffer —
		// a multicast can race ahead of the point-to-point transfer — so
		// drain what is now in order and arm repair for what is not.
		if st.next < next+1 {
			st.next = next + 1
			s.cntBuffer -= st.reorder.advance(st.next)
			s.cntHistory -= st.history.advance(st.next)
		}
		s.deliver(ch, st, s.takeBuffered(st))
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
		st = &originState{next: 1}
		st.reorder.drop = heldCast.release
		st.history.drop = appia.Retained.Release
		s.recv[id] = st
	}
	return st
}

// delivered is the contiguous delivery watermark for one origin. Our own
// casts count as delivered up to nextSeq-1 (self-delivery is immediate).
func (s *nakSession) delivered(origin appia.NodeID) uint64 {
	var d uint64
	if st, ok := s.recv[origin]; ok {
		d = st.next - 1
	}
	if origin == s.cfg.Self {
		d = max(d, s.nextSeq-1)
	}
	return d
}

// deliveredVector snapshots the per-origin delivery watermarks.
func (s *nakSession) deliveredVector() DeliveredVector {
	dv := make(DeliveredVector, len(s.recv)+1)
	for origin := range s.recv {
		if d := s.delivered(origin); d > 0 {
			dv[origin] = d
		}
	}
	if d := s.delivered(s.cfg.Self); d > 0 {
		dv[s.cfg.Self] = d
	}
	return dv
}
