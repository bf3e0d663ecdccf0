// Package appia implements a protocol composition and execution kernel
// modelled after the Appia system (Miranda, Pinto, Rodrigues, ICDCS 2001).
//
// Protocols are written as Layers that declare which event types they
// accept, require and provide. A QoS is an ordered composition of layers;
// instantiating a QoS yields a Channel whose per-layer state lives in
// Sessions. Events flow up and down the channel, visiting exactly the
// sessions whose layers accept their type. All sessions of a stack execute
// on a single scheduler goroutine, so protocol code needs no locking.
package appia

import (
	"fmt"
	"reflect"
)

// Direction is the direction an event travels through a channel.
type Direction int

// Directions of event flow. Up moves from the network towards the
// application; Down moves from the application towards the network.
const (
	Up Direction = iota + 1
	Down
)

// Invert returns the opposite direction.
func (d Direction) Invert() Direction {
	if d == Up {
		return Down
	}
	return Up
}

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Up:
		return "up"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Event is the unit of communication between layers. Concrete events are
// pointers to structs that embed EventBase (directly or transitively).
// Embedding establishes an "is-a" hierarchy used for routing: a layer that
// accepts *SendableEvent also receives every event whose struct embeds
// SendableEvent.
type Event interface {
	base() *EventBase
}

// EventBase carries the kernel bookkeeping shared by all events. Embed it
// (by value) as the first field of a concrete event struct.
type EventBase struct {
	dir     Direction
	channel *Channel
	route   []int // session indices (bottom..top) that accept this event
	cursor  int   // position within route of the next session to visit
	inited  bool
	kind    Kind // stamped by the kind's pool or on first routing; kept across recycling
}

func (b *EventBase) base() *EventBase { return b }

// Dir reports the direction the event is travelling.
func (b *EventBase) Dir() Direction { return b.dir }

// SetDir changes the direction of travel. Typically used by layers that
// bounce an event back (for example, a loopback of a locally multicast
// message).
func (b *EventBase) SetDir(d Direction) { b.dir = d }

// Channel returns the channel the event is flowing through, or nil if the
// event has not been inserted yet.
func (b *EventBase) Channel() *Channel { return b.channel }

// EventType identifies a type of event for routing declarations. It is the
// reflect.Type of the concrete pointer-to-struct event (or of an interface
// that events may implement).
type EventType struct {
	t reflect.Type
}

// T returns the EventType for the concrete event type E.
// Use as appia.T[*MyEvent]().
func T[E Event]() EventType {
	return EventType{t: reflect.TypeOf((*E)(nil)).Elem()}
}

// TIface returns the EventType of an interface type I; a layer accepting it
// receives every event whose concrete type implements I.
// Use as appia.TIface[MyInterface]().
func TIface[I any]() EventType {
	return EventType{t: reflect.TypeOf((*I)(nil)).Elem()}
}

// TypeOf returns the EventType of a live event value.
func TypeOf(ev Event) EventType {
	return EventType{t: reflect.TypeOf(ev)}
}

// String implements fmt.Stringer.
func (et EventType) String() string {
	if et.t == nil {
		return "EventType(nil)"
	}
	return et.t.String()
}

// Matches reports whether a concrete event of type "concrete" should be
// routed to a layer accepting this EventType. It holds when the types are
// identical, when concrete implements the accepted interface type, or when
// the struct behind concrete (transitively) embeds the struct behind the
// accepted type.
func (et EventType) Matches(concrete EventType) bool {
	a, c := et.t, concrete.t
	if a == nil || c == nil {
		return false
	}
	if a == c {
		return true
	}
	if a.Kind() == reflect.Interface {
		return c.Implements(a)
	}
	// Both are expected to be pointer-to-struct event types.
	if a.Kind() != reflect.Ptr || c.Kind() != reflect.Ptr {
		return false
	}
	return embedsStruct(c.Elem(), a.Elem())
}

// embedsStruct reports whether struct type outer embeds (transitively,
// through anonymous fields) struct type inner.
func embedsStruct(outer, inner reflect.Type) bool {
	if outer.Kind() != reflect.Struct || inner.Kind() != reflect.Struct {
		return false
	}
	for i := 0; i < outer.NumField(); i++ {
		f := outer.Field(i)
		if !f.Anonymous {
			continue
		}
		ft := f.Type
		if ft.Kind() == reflect.Ptr {
			ft = ft.Elem()
		}
		if ft == inner {
			return true
		}
		if ft.Kind() == reflect.Struct && embedsStruct(ft, inner) {
			return true
		}
	}
	return false
}

// ChannelInit is delivered to every session, bottom-up, when a channel
// starts. Sessions use it to capture the channel reference, arm timers and
// open network endpoints.
type ChannelInit struct {
	EventBase
}

// ChannelClose is delivered to every session, top-down, when a channel is
// being torn down. Sessions must release external resources.
type ChannelClose struct {
	EventBase
}

// Debug events can be injected to trace the route computation; they visit
// every session.
type Debug struct {
	EventBase
	Note string
}
