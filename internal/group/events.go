// Package group implements the reliable group communication protocol suite
// the Morpheus prototype builds on (paper §3.1): best-effort multicast
// bottoms (point-to-point fan-out; native multicast lives in the transport
// package; Mecho and epidemic variants in their own packages), a NACK-based
// reliable FIFO multicast with stability tracking, a membership service
// with failure detection and view-synchronous flush, and causal and total
// ordering layers.
//
// Layer stack (bottom to top) of a typical data channel:
//
//	transport.ptp → group.fanout (or mecho/…) → group.nak → group.gms → [group.causal] → [group.total]
package group

import (
	"fmt"
	"sort"

	"morpheus/internal/appia"
	"morpheus/internal/flowctl"
)

// View is an agreed membership epoch.
type View struct {
	ID      uint64
	Members []appia.NodeID // sorted ascending
}

// Coordinator returns the deterministically elected coordinator: the member
// with the lowest identifier, as in the paper's Core sub-system (§3.3).
func (v View) Coordinator() appia.NodeID {
	if len(v.Members) == 0 {
		return appia.NoNode
	}
	return v.Members[0]
}

// Contains reports membership of id.
func (v View) Contains(id appia.NodeID) bool {
	for _, m := range v.Members {
		if m == id {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (v View) Clone() View {
	cp := View{ID: v.ID, Members: make([]appia.NodeID, len(v.Members))}
	copy(cp.Members, v.Members)
	return cp
}

// String implements fmt.Stringer.
func (v View) String() string {
	return fmt.Sprintf("view#%d%v", v.ID, v.Members)
}

// NormalizeMembers sorts and deduplicates a member list in place and
// returns it.
func NormalizeMembers(ms []appia.NodeID) []appia.NodeID {
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	out := ms[:0]
	var last appia.NodeID = -1
	for _, m := range ms {
		if m != last {
			out = append(out, m)
			last = m
		}
	}
	return out
}

// pushView / popView encode a view into a message header stack.
func pushView(m *appia.Message, v View) {
	ids := make([]uint64, len(v.Members))
	for i, n := range v.Members {
		ids[i] = uint64(uint32(n))
	}
	m.PushUvarintSlice(ids)
	m.PushUvarint(v.ID)
}

func popView(m *appia.Message) (View, error) {
	id, err := m.PopUvarint()
	if err != nil {
		return View{}, err
	}
	ids, err := m.PopUvarintSlice()
	if err != nil {
		return View{}, err
	}
	v := View{ID: id, Members: make([]appia.NodeID, len(ids))}
	for i, u := range ids {
		v.Members[i] = appia.NodeID(uint32(u))
	}
	return v, nil
}

// DeliveredVector maps each origin to the highest contiguously delivered
// sequence number from it. It is the unit of agreement of the flush
// protocol: a view may be installed only when every surviving member
// reports the same vector.
type DeliveredVector map[appia.NodeID]uint64

// Clone returns a deep copy.
func (dv DeliveredVector) Clone() DeliveredVector {
	cp := make(DeliveredVector, len(dv))
	for k, v := range dv {
		cp[k] = v
	}
	return cp
}

// SortedOrigins returns the vector's origins in ascending order, for
// callers whose iteration has side effects (timer arming, sends) and must
// therefore be deterministic.
func (dv DeliveredVector) SortedOrigins() []appia.NodeID {
	keys := make([]appia.NodeID, 0, len(dv))
	for k := range dv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Equal reports whether two vectors are identical (absent keys equal zero).
func (dv DeliveredVector) Equal(other DeliveredVector) bool {
	for k, v := range dv {
		if other[k] != v {
			return false
		}
	}
	for k, v := range other {
		if dv[k] != v {
			return false
		}
	}
	return true
}

// push / pop encode the vector as a flattened (origin, seq) pair list.
func (dv DeliveredVector) push(m *appia.Message) {
	flat := make([]uint64, 0, len(dv)*2)
	// Deterministic encoding order.
	keys := make([]appia.NodeID, 0, len(dv))
	for k := range dv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		flat = append(flat, uint64(uint32(k)), dv[k])
	}
	m.PushUvarintSlice(flat)
}

func popVector(m *appia.Message) (DeliveredVector, error) {
	flat, err := m.PopUvarintSlice()
	if err != nil {
		return nil, err
	}
	if len(flat)%2 != 0 {
		return nil, fmt.Errorf("group: odd vector encoding length %d", len(flat))
	}
	dv := make(DeliveredVector, len(flat)/2)
	for i := 0; i < len(flat); i += 2 {
		dv[appia.NodeID(uint32(flat[i]))] = flat[i+1]
	}
	return dv, nil
}

// --- Wire events -----------------------------------------------------------

// CastEvent is a group data multicast. Events that embed CastEvent inherit
// the reliability, FIFO and ordering guarantees of the layers that accept
// it; the GMS control events below exploit this.
//
// Origin and Seq are local metadata filled in by the reliable layer on
// delivery (the wire carries them as message headers). Group is local
// metadata too: on a node hosting several groups, the delivering stack
// stamps the event with the name of the group it belongs to, so
// applications (and the multi-group isolation tests) can assert that
// traffic never crossed group boundaries. It never travels on the wire —
// group isolation is structural (per-group port namespaces and sequence
// spaces), the tag only makes it observable.
type CastEvent struct {
	appia.SendableEvent
	Origin appia.NodeID
	Seq    uint64
	Group  string
	// Credit is local metadata (never on the wire, not copied by
	// CloneSendable): the send-window credit this cast holds. The stack
	// manager stamps it on application casts at submission, and the
	// reliable layer releases exactly that once stability gossip confirms
	// every peer delivered the cast (or at a view install or channel
	// teardown, when the flush has equalised deliveries). Control casts and
	// unwindowed configurations leave it zero.
	Credit flowctl.Credit
}

// CastBase implements Caster.
func (c *CastEvent) CastBase() *CastEvent { return c }

// castKind is CastEvent's kind: NewCastEvent draws from its pool.
var castKind = appia.KindFor[CastEvent]()

// NewCastEvent returns an empty CastEvent, recycled when one has been
// released (appia.ReleaseEvent).
func NewCastEvent() *CastEvent { return castKind.New().(*CastEvent) }

// Caster is implemented by every event embedding CastEvent; layers use it
// to reach the shared cast metadata regardless of the concrete type.
type Caster interface {
	appia.Sendable
	CastBase() *CastEvent
}

var _ Caster = (*CastEvent)(nil)

// Heartbeat is the unreliable failure-detector beacon. It embeds
// SendableEvent directly, bypassing the reliable layer.
type Heartbeat struct {
	appia.SendableEvent
	// ViewID travels as a header.
	ViewID uint64
}

// Propose starts (or retries) a flush round for a new view. Reliable
// (embeds CastEvent). Headers: hold flag, proposed view.
type Propose struct {
	CastEvent
	Proposed View
	Hold     bool
	// Round numbers the coordinator's proposal sends (initial, restarts,
	// retries) so FlushReports are only compared within one round.
	Round uint64
}

// FlushReport carries a member's delivered vector to the flush coordinator,
// point-to-point and unreliable (the coordinator retries the Propose until
// reports converge). Headers: view id, vector.
type FlushReport struct {
	appia.SendableEvent
	ViewID uint64
	Vector DeliveredVector
	// Round echoes the Propose round this vector was snapshot for.
	Round uint64
}

// Install commits a proposed view. Reliable (embeds CastEvent).
type Install struct {
	CastEvent
	Installed View
	Hold      bool
}

// JoinReq asks the coordinator to admit the source node into the group.
type JoinReq struct {
	appia.SendableEvent
}

// StateTransfer bootstraps a joiner: the current view plus the sequence
// vector it should start expecting from. Point-to-point.
type StateTransfer struct {
	appia.SendableEvent
	NewView View
	Vector  DeliveredVector
}

// Nack requests retransmission of origin's sequence range [From, To],
// point-to-point to the origin.
type Nack struct {
	appia.SendableEvent
	Origin   appia.NodeID
	From, To uint64
}

// Stable disseminates a member's delivered vector for garbage collection
// of retransmission buffers.
type Stable struct {
	appia.SendableEvent
	Vector DeliveredVector
}

// OrderEv carries sequencer ordering decisions: a batch of
// (origin, seq, global seq) triples. Reliable (embeds CastEvent).
type OrderEv struct {
	CastEvent
	Orders []OrderEntry
}

// OrderEntry maps one cast to its global sequence number.
type OrderEntry struct {
	Origin appia.NodeID
	Seq    uint64
	Gseq   uint64
}

// --- Local (non-wire) events ------------------------------------------------

// ViewInstall announces an installed view to the rest of the stack. The GMS
// emits one copy upward (for the application and ordering layers) and one
// downward (so the best-effort bottoms and the reliable layer track
// membership).
type ViewInstall struct {
	appia.EventBase
	View View
}

// BlockOk is emitted upward when the GMS blocks the channel at the start of
// a flush; applications may use it to pause optimistic sending. Sends
// issued while blocked are buffered and released at install time.
type BlockOk struct {
	appia.EventBase
	ViewID uint64
}

// Quiescent is emitted upward after a flush that was triggered with
// Hold: the channel is drained, every surviving member has delivered the
// same messages, and no new traffic will flow until the channel is rebuilt
// (this is the reconfiguration window of paper §3.3).
type Quiescent struct {
	appia.EventBase
	View View
}

// TriggerFlush asks the GMS to run a view change now. Core injects it to
// reach quiescence before reconfiguring; Hold keeps the channel blocked
// after the flush completes.
//
// Members, when non-empty, scopes the flush to that set (typically the
// control group's live membership): the lowest listed member that is also
// in the current data view coordinates, and only listed members must
// report. This is how a reconfiguration makes progress even when the data
// channel's own coordinator has crashed — the data channel may run without
// a failure detector precisely because Core supplies this liveness
// knowledge.
type TriggerFlush struct {
	appia.EventBase
	Hold    bool
	Members []appia.NodeID
}

// JoinVia asks the GMS to enter a *running* group through one seed
// member: the facade injects it on a late joiner's channel (bootstrapped
// as a singleton view) and the session keeps re-sending the JoinReq until
// a view containing both itself and the seed installs — the request, the
// flush it folds into, or the state-transfer answer can all be lost while
// the joiner still sits outside the reliable repair path.
type JoinVia struct {
	appia.EventBase
	Seed appia.NodeID
}

// VectorQuery is bounced off the reliable layer to snapshot its delivered
// vector.
type VectorQuery struct {
	appia.EventBase
	Vector DeliveredVector
	// Round is the proposal round this snapshot answers. It rides in the
	// event so the FlushReport's round is bound when the query is issued:
	// stamping the report from session state at bounce time instead let a
	// backlogged member (draining several repaired Proposes in one
	// cascade) attach a fresh round to a stale vector, which then poisons
	// the coordinator's same-round comparison every retry.
	Round uint64
}

// nackTimeout is the reliable layer's private retransmission timer event.
type nackTimeout struct {
	appia.EventBase
	origin appia.NodeID
}

// stableTick is the reliable layer's private stability gossip timer.
type stableTick struct {
	appia.EventBase
}

// hbTick and fdTick are the GMS's private timers.
type hbTick struct {
	appia.EventBase
}

type fdTick struct {
	appia.EventBase
}

// flushRetryTick re-drives an unconverged flush round.
type flushRetryTick struct {
	appia.EventBase
	viewID uint64
}

// joinRetryTick re-drives an unanswered join request.
type joinRetryTick struct {
	appia.EventBase
}

// RegisterWireEvents registers the suite's wire event kinds in the given
// registry (nil means the process-wide default). Idempotent.
func RegisterWireEvents(reg *appia.EventKindRegistry) {
	if reg == nil {
		reg = appia.DefaultRegistry()
	}
	appia.RegisterKind[CastEvent](reg, "group.cast")
	appia.RegisterKind[Heartbeat](reg, "group.hb")
	appia.RegisterKind[Propose](reg, "group.propose")
	appia.RegisterKind[FlushReport](reg, "group.flushreport")
	appia.RegisterKind[Install](reg, "group.install")
	appia.RegisterKind[JoinReq](reg, "group.joinreq")
	appia.RegisterKind[StateTransfer](reg, "group.statetransfer")
	appia.RegisterKind[Nack](reg, "group.nack")
	appia.RegisterKind[Stable](reg, "group.stable")
	appia.RegisterKind[OrderEv](reg, "group.order")
}
