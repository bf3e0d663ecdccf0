package appia

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// EventKindRegistry maps wire names to event factories so a receiving
// transport can reconstruct the concrete event type that was sent. The
// registry is safe for concurrent use; protocol packages register their
// wire events from constructors (never from init functions).
type EventKindRegistry struct {
	mu      sync.RWMutex
	byName  map[string]func() Sendable
	byType  map[reflect.Type]string
	missing func(kind string) // diagnostics hook for unknown kinds
}

// NewEventKindRegistry returns an empty registry.
func NewEventKindRegistry() *EventKindRegistry {
	return &EventKindRegistry{
		byName: make(map[string]func() Sendable),
		byType: make(map[reflect.Type]string),
	}
}

// _defaultRegistry is the process-wide registry used by DefaultRegistry.
// Protocol packages register into it through RegisterEventKind, which is
// idempotent, so simulated nodes in one process can share it.
var _defaultRegistry = NewEventKindRegistry()

// DefaultRegistry returns the process-wide event kind registry.
func DefaultRegistry() *EventKindRegistry { return _defaultRegistry }

// Register adds a kind. The factory must return a fresh event whose
// concrete type is always the same. Registering the same name twice with
// the same concrete type is a no-op; with a different type it panics, since
// that is a programming error that would corrupt the wire protocol.
func (r *EventKindRegistry) Register(name string, factory func() Sendable) {
	t := reflect.TypeOf(factory())
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok {
		if reflect.TypeOf(prev()) != t {
			panic(fmt.Sprintf("appia: event kind %q registered with conflicting types", name))
		}
		return
	}
	r.byName[name] = factory
	r.byType[t] = name
}

// RegisterEventKind registers into the default registry.
func RegisterEventKind(name string, factory func() Sendable) {
	_defaultRegistry.Register(name, factory)
}

// KindOf returns the wire name of the event's concrete type.
func (r *EventKindRegistry) KindOf(ev Sendable) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	name, ok := r.byType[reflect.TypeOf(ev)]
	if !ok {
		return "", fmt.Errorf("appia: event type %T not registered", ev)
	}
	return name, nil
}

// New constructs a fresh event of the named kind.
func (r *EventKindRegistry) New(kind string) (Sendable, error) {
	r.mu.RLock()
	f, ok := r.byName[kind]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("appia: unknown event kind %q", kind)
	}
	return f(), nil
}

// NewFromBytes is New for a kind name still sitting in a receive buffer: the
// lookup borrows kind and allocates nothing but the event.
func (r *EventKindRegistry) NewFromBytes(kind []byte) (Sendable, error) {
	r.mu.RLock()
	f, ok := r.byName[string(kind)]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("appia: unknown event kind %q", kind)
	}
	return f(), nil
}

// Kinds returns the registered kind names in sorted order.
func (r *EventKindRegistry) Kinds() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byName))
	for k := range r.byName {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
