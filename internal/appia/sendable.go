package appia

// NodeID identifies a node of the distributed system. In the virtual
// network it doubles as the address; a real deployment would map it to a
// host:port pair.
type NodeID int32

// NoNode is the zero NodeID, used for "unaddressed" (group-wide) traffic.
const NoNode NodeID = 0

// SendableEvent is the root of all events that cross the network. Layers
// push protocol headers onto Msg on the way down and pop them on the way
// up; the struct fields below are kernel-local metadata and never travel on
// the wire except where the transport explicitly encodes them.
//
// Concrete wire events embed SendableEvent and are registered with
// RegisterKind so receivers can reconstruct them by kind name.
type SendableEvent struct {
	EventBase
	// Msg is the header stack plus payload.
	Msg *Message
	// Source is the originating node. Filled by the sender's transport on
	// the way down and by the receiver's transport on the way up.
	Source NodeID
	// Dest is the destination node for point-to-point traffic, or NoNode
	// for group traffic (the bottom layers decide how to spread it).
	Dest NodeID
	// Class tags the event for accounting: "data" or "control". The
	// virtual network counts transmissions per class, which is how the
	// paper's Figure 3 separates payload from adaptation overhead.
	Class string
}

// EnsureMsg lazily allocates the message.
func (e *SendableEvent) EnsureMsg() *Message {
	if e.Msg == nil {
		e.Msg = &Message{}
	}
	return e.Msg
}

// Sendable is implemented by every event embedding SendableEvent; it gives
// layers typed access to the shared wire metadata without knowing the
// concrete event type.
type Sendable interface {
	Event
	SendableBase() *SendableEvent
}

// SendableBase implements Sendable.
func (e *SendableEvent) SendableBase() *SendableEvent { return e }

var _ Sendable = (*SendableEvent)(nil)

// Classes used for transmission accounting.
const (
	ClassData    = "data"
	ClassControl = "control"
)

// CloneSendable returns an empty event of the same kind with a clone of the
// message and the wire metadata. Struct fields outside SendableEvent are NOT
// copied: by convention all state that must survive the network lives in
// pushed message headers, so a clone made below the layers that pushed those
// headers is complete. Fan-out layers use this to turn one logical multicast
// into per-destination copies.
func CloneSendable(e Sendable) Sendable {
	src := e.SendableBase()
	cp := Retained{kind: kindOf(e), msg: src.Msg}.Event()
	dst := cp.SendableBase()
	dst.Source = src.Source
	dst.Dest = src.Dest
	dst.Class = src.Class
	return cp
}

// ReleaseEvent ends an event and its message: the message is released, and
// the event is reset to the zero value of its type and recycled through its
// kind's pool. Ownership follows the message's: an event belongs to whoever
// holds it, and whoever consumes it — does not forward it — releases it, at
// the points DESIGN.md "Kernel data plane" lists. The event must not be used
// afterwards; the race build marks it and panics on any later Insert,
// Forward, SendFrom, hop or second release (poison_race.go).
func ReleaseEvent(e Sendable) {
	k := kindOf(e)
	e.SendableBase().Msg.Release()
	info := kindInfoOf(k)
	if info.zero != nil {
		info.zero(e)
	} else {
		*e.SendableBase() = SendableEvent{}
	}
	retireEvent(e, k, info.pool)
}

// Retained is what a layer keeps of a Sendable it may have to send again
// (a retransmission buffer, a relay history): the kind and its own clone of
// the message — not a second event. The event is rebuilt by Event only if a
// resend is actually asked for. The zero Retained holds nothing; values are
// comparable.
type Retained struct {
	kind Kind
	msg  *Message
}

// Retain captures e as it is now; later pushes and pops on e.Msg do not show
// in the capture. The caller owns the result and Releases it.
func Retain(e Sendable) Retained {
	r := Retained{kind: kindOf(e)}
	if m := e.SendableBase().Msg; m != nil {
		r.msg = m.Clone()
	}
	return r
}

// Event returns an empty event of the captured kind carrying a clone of the
// captured message; Source, Dest and Class are left zero.
func (r Retained) Event() Sendable {
	cp := r.kind.New()
	if r.msg != nil {
		cp.SendableBase().Msg = r.msg.Clone()
	}
	return cp
}

// Release gives up the captured message.
func (r Retained) Release() { r.msg.Release() }
