package appia

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind is a small process-wide integer naming one concrete event type. Every
// event carries its kind once it has been drawn from a pool or routed, and
// the per-frame lookups — wire name, route, clone — index slices by it
// instead of hashing a reflect.Type. Kind ids are assigned on first use and
// never reused; the zero Kind names no type.
type Kind int32

// kindInfo describes one kind. It is immutable once published.
type kindInfo struct {
	typ reflect.Type
	// fresh, zero and pool are set for kinds declared through KindFor (every
	// registered wire kind). A kind known only from a live event (a literal
	// of an unregistered type) has none of them: its events are built by
	// reflection and left to the GC.
	fresh func() Sendable
	zero  func(Sendable)
	pool  *sync.Pool
}

// kindTable is a copy-on-write snapshot of every kind assigned so far, so a
// per-frame lookup is one atomic load and no lock.
type kindTable struct {
	infos  []*kindInfo // by Kind; infos[0] is nil
	byType map[reflect.Type]Kind
}

var (
	kindsMu sync.Mutex // serialises writers of kinds
	kinds   atomic.Pointer[kindTable]
)

func kindInfoOf(k Kind) *kindInfo { return kinds.Load().infos[k] }

// KindFor returns the kind of *E, assigning it on first use, with new(E) as
// its factory and a pool its released events are recycled through. Protocol
// packages reach their wire kinds through RegisterKind; a package that also
// builds events of a kind on the data path keeps the Kind and draws from it
// with New.
func KindFor[E any, P interface {
	*E
	Sendable
}]() Kind {
	return assignKind(reflect.TypeFor[P](), &kindInfo{
		fresh: func() Sendable { return P(new(E)) },
		zero: func(ev Sendable) {
			var zero E
			*ev.(P) = zero
		},
		pool: new(sync.Pool),
	})
}

// assignKind returns t's kind, assigning one on first sight. ops, when the
// caller knows them, carries the factory and pool (typ is filled in here); it
// upgrades a kind first met as a live event, never replaces one that already
// has them.
func assignKind(t reflect.Type, ops *kindInfo) Kind {
	if tab := kinds.Load(); tab != nil {
		if k, ok := tab.byType[t]; ok && (ops == nil || tab.infos[k].pool != nil) {
			return k
		}
	}
	kindsMu.Lock()
	defer kindsMu.Unlock()
	old := kinds.Load()
	if old == nil {
		old = &kindTable{infos: []*kindInfo{nil}, byType: map[reflect.Type]Kind{}}
	}
	k, known := old.byType[t]
	if known && (ops == nil || old.infos[k].pool != nil) {
		return k
	}
	info := ops
	if info == nil {
		info = &kindInfo{}
	}
	info.typ = t
	tab := &kindTable{infos: slices.Clone(old.infos), byType: maps.Clone(old.byType)}
	if !known {
		k = Kind(len(tab.infos))
		tab.infos = append(tab.infos, nil)
		tab.byType[t] = k
	}
	tab.infos[k] = info
	kinds.Store(tab)
	return k
}

// kindOf returns ev's kind, stamping it on the event the first time: an
// event built as a literal is looked up by its reflect.Type once, every
// later lookup reads the stamp.
func kindOf(ev Event) Kind {
	b := ev.base()
	b.live()
	if b.kind == 0 {
		b.kind = assignKind(reflect.TypeOf(ev), nil)
	}
	return b.kind
}

// New returns an empty event of kind k: a recycled one when the pool has one,
// else a fresh one.
func (k Kind) New() Sendable {
	info := kindInfoOf(k)
	if info.pool != nil {
		if ev, ok := info.pool.Get().(Sendable); ok {
			return ev
		}
		ev := info.fresh()
		ev.base().kind = k
		return ev
	}
	// A kind never declared: the literal-event fallback.
	ev, ok := reflect.New(info.typ.Elem()).Interface().(Sendable)
	if !ok {
		panic(fmt.Sprintf("appia: %v does not implement Sendable", info.typ))
	}
	ev.base().kind = k
	return ev
}

// EventKindRegistry maps wire names to event kinds so a receiving transport
// can reconstruct the concrete event type that was sent. The registry is
// safe for concurrent use and lookups take no lock; protocol packages
// register their wire events from constructors (never from init functions).
type EventKindRegistry struct {
	mu   sync.Mutex // serialises writers of snap
	snap atomic.Pointer[registrySnap]
}

// registrySnap is a copy-on-write snapshot of a registry's names.
type registrySnap struct {
	byName map[string]Kind
	names  []string // by Kind; "" where this registry has no name
}

// NewEventKindRegistry returns an empty registry.
func NewEventKindRegistry() *EventKindRegistry {
	r := &EventKindRegistry{}
	r.snap.Store(&registrySnap{byName: map[string]Kind{}})
	return r
}

// _defaultRegistry is the process-wide registry used by DefaultRegistry.
// RegisterKind is idempotent, so simulated nodes in one process can share it.
var _defaultRegistry = NewEventKindRegistry()

// DefaultRegistry returns the process-wide event kind registry.
func DefaultRegistry() *EventKindRegistry { return _defaultRegistry }

// RegisterKind names *E's kind in r. Registering the same name twice with
// the same type is a no-op; with a different type it panics, since that is a
// programming error that would corrupt the wire protocol.
func RegisterKind[E any, P interface {
	*E
	Sendable
}](r *EventKindRegistry, name string) {
	r.register(name, KindFor[E, P]())
}

func (r *EventKindRegistry) register(name string, k Kind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load()
	if prev, ok := old.byName[name]; ok {
		if prev != k {
			panic(fmt.Sprintf("appia: event kind %q registered with conflicting types", name))
		}
		return
	}
	s := &registrySnap{byName: maps.Clone(old.byName), names: slices.Clone(old.names)}
	s.byName[name] = k
	for int(k) >= len(s.names) {
		s.names = append(s.names, "")
	}
	s.names[k] = name
	r.snap.Store(s)
}

// KindOf returns the wire name of the event's concrete type.
func (r *EventKindRegistry) KindOf(ev Sendable) (string, error) {
	k, names := kindOf(ev), r.snap.Load().names
	if int(k) < len(names) && names[k] != "" {
		return names[k], nil
	}
	return "", fmt.Errorf("appia: event type %T not registered", ev)
}

// New returns an empty event of the named kind.
func (r *EventKindRegistry) New(kind string) (Sendable, error) {
	k, ok := r.snap.Load().byName[kind]
	if !ok {
		return nil, fmt.Errorf("appia: unknown event kind %q", kind)
	}
	return k.New(), nil
}

// NewFromBytes is New for a kind name still sitting in a receive buffer: the
// lookup borrows kind and allocates nothing (a recycled event is reused).
func (r *EventKindRegistry) NewFromBytes(kind []byte) (Sendable, error) {
	k, ok := r.snap.Load().byName[string(kind)]
	if !ok {
		return nil, fmt.Errorf("appia: unknown event kind %q", kind)
	}
	return k.New(), nil
}

// Kinds returns the registered kind names in sorted order.
func (r *EventKindRegistry) Kinds() []string {
	byName := r.snap.Load().byName
	out := make([]string, 0, len(byName))
	for k := range byName {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
