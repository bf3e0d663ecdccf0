// Package appiaxml reproduces the AppiaXML extension the paper developed
// for Morpheus (§3.1, [16]): communication channels are described in XML
// and can be instantiated — or re-instantiated — at run time. The Core
// sub-system ships these descriptions to each node during reconfiguration,
// and the local module rebuilds the protocol stack from them.
package appiaxml

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/clock"
	"morpheus/internal/flowctl"
	"morpheus/internal/netio"
)

// Errors returned by the builder.
var (
	ErrUnknownLayer  = errors.New("appiaxml: unknown layer")
	ErrNoChannel     = errors.New("appiaxml: channel not found in document")
	ErrMissingParam  = errors.New("appiaxml: missing required parameter")
	ErrInvalidParam  = errors.New("appiaxml: invalid parameter value")
	ErrDuplicateName = errors.New("appiaxml: duplicate layer registration")
)

// Document is the root of a channel description.
type Document struct {
	XMLName  xml.Name      `xml:"appia"`
	Channels []ChannelSpec `xml:"channel"`
}

// ChannelSpec describes one channel: an ordered stack of sessions, bottom
// first.
type ChannelSpec struct {
	Name     string        `xml:"name,attr"`
	QoS      string        `xml:"qos,attr"`
	Sessions []SessionSpec `xml:"session"`
}

// SessionSpec describes one layer instantiation.
type SessionSpec struct {
	// Layer is the registered protocol name, e.g. "group.nak".
	Layer string `xml:"layer,attr"`
	// Sharing is "private" (default) or "global": global sessions are
	// looked up by SharedName in the session cache, so several channels
	// (or successive configuration epochs) reuse the same state.
	Sharing string `xml:"sharing,attr"`
	// SharedName identifies a global session in the cache.
	SharedName string `xml:"name,attr"`
	// Params configure the layer factory.
	Params []ParamSpec `xml:"param"`
}

// ParamSpec is one key/value layer parameter.
type ParamSpec struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// Parse reads a document.
func Parse(r io.Reader) (*Document, error) {
	var d Document
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("appiaxml: %w", err)
	}
	return &d, nil
}

// ParseString reads a document from a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// Marshal renders the document as XML text.
func (d *Document) Marshal() (string, error) {
	out, err := xml.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("appiaxml: %w", err)
	}
	return string(out), nil
}

// Channel returns the named channel spec.
func (d *Document) Channel(name string) (ChannelSpec, error) {
	for _, c := range d.Channels {
		if c.Name == name {
			return c, nil
		}
	}
	return ChannelSpec{}, fmt.Errorf("%w: %q", ErrNoChannel, name)
}

// Params gives typed access to a session's parameters.
type Params map[string]string

// paramsOf flattens the spec list.
func paramsOf(specs []ParamSpec) Params {
	p := make(Params, len(specs))
	for _, s := range specs {
		p[s.Name] = strings.TrimSpace(s.Value)
	}
	return p
}

// Get returns a string parameter and whether it was present.
func (p Params) Get(name string) (string, bool) {
	v, ok := p[name]
	return v, ok
}

// Str returns a string parameter or the fallback.
func (p Params) Str(name, fallback string) string {
	if v, ok := p[name]; ok {
		return v
	}
	return fallback
}

// Int returns an integer parameter or the fallback.
func (p Params) Int(name string, fallback int) (int, error) {
	v, ok := p[name]
	if !ok {
		return fallback, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q", ErrInvalidParam, name, v)
	}
	return n, nil
}

// Bool returns a boolean parameter or the fallback.
func (p Params) Bool(name string, fallback bool) (bool, error) {
	v, ok := p[name]
	if !ok {
		return fallback, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("%w: %s=%q", ErrInvalidParam, name, v)
	}
	return b, nil
}

// Duration returns a duration parameter ("30ms") or the fallback.
func (p Params) Duration(name string, fallback time.Duration) (time.Duration, error) {
	v, ok := p[name]
	if !ok {
		return fallback, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q", ErrInvalidParam, name, v)
	}
	return d, nil
}

// NodeID returns a node identifier parameter or the fallback.
func (p Params) NodeID(name string, fallback appia.NodeID) (appia.NodeID, error) {
	v, ok := p[name]
	if !ok {
		return fallback, nil
	}
	n, err := strconv.ParseInt(v, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q", ErrInvalidParam, name, v)
	}
	return appia.NodeID(n), nil
}

// NodeIDs returns a comma-separated node list parameter.
func (p Params) NodeIDs(name string) ([]appia.NodeID, error) {
	v, ok := p[name]
	if !ok || v == "" {
		return nil, nil
	}
	parts := strings.Split(v, ",")
	out := make([]appia.NodeID, 0, len(parts))
	for _, part := range parts {
		n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: %s=%q", ErrInvalidParam, name, v)
		}
		out = append(out, appia.NodeID(n))
	}
	return out, nil
}

// FormatNodeIDs renders a node list as a parameter value.
func FormatNodeIDs(ids []appia.NodeID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatInt(int64(id), 10)
	}
	return strings.Join(parts, ",")
}

// Env is the local context a layer factory may draw on: the node's network
// attachment (any netio substrate), identity, current group membership and
// channel port. Group names the hosted group the channel belongs to on a
// multi-group node (empty on single-group deployments); layers use it to
// tag delivered events so cross-group isolation is observable.
type Env struct {
	Node      netio.Endpoint
	Self      appia.NodeID
	Group     string
	Members   []appia.NodeID
	Port      string
	Scheduler *appia.Scheduler
	Shared    *SessionCache
	Deliver   appia.DeliverFunc
	Logf      func(format string, args ...any)
	// Clock is the node's time plane, handed to layers that read the
	// current time directly (the scheduler's timers have their own copy).
	// Nil means wall clock.
	Clock clock.Clock
	// Credits, when non-nil, is the group's send-window credit sink: the
	// reliable layer returns each cast's credit as stability gossip confirms
	// group-wide delivery. Nil means windowing is off for this channel.
	Credits flowctl.Releaser
	// SendWindow is the message window's credit capacity (0 when windowing
	// is off); factories derive retention caps from it.
	SendWindow int
}

// LayerFactory builds a layer instance from parameters and the local
// environment.
type LayerFactory func(p Params, env *Env) (appia.Layer, error)

// LayerRegistry maps protocol names to factories.
type LayerRegistry struct {
	mu sync.RWMutex
	m  map[string]LayerFactory
}

// NewLayerRegistry returns an empty registry.
func NewLayerRegistry() *LayerRegistry {
	return &LayerRegistry{m: make(map[string]LayerFactory)}
}

// Register adds a factory; duplicate names are rejected.
func (r *LayerRegistry) Register(name string, f LayerFactory) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	r.m[name] = f
	return nil
}

// MustRegister is Register that panics, for static wiring code.
func (r *LayerRegistry) MustRegister(name string, f LayerFactory) {
	if err := r.Register(name, f); err != nil {
		panic(err)
	}
}

// New builds a layer by name.
func (r *LayerRegistry) New(name string, p Params, env *Env) (appia.Layer, error) {
	r.mu.RLock()
	f, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownLayer, name)
	}
	return f(p, env)
}

// Names returns the registered layer names, sorted.
func (r *LayerRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for k := range r.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SessionCache holds globally shared sessions across channel builds.
type SessionCache struct {
	mu sync.Mutex
	m  map[string]appia.Session
}

// NewSessionCache returns an empty cache.
func NewSessionCache() *SessionCache {
	return &SessionCache{m: make(map[string]appia.Session)}
}

// Get returns a cached session.
func (c *SessionCache) Get(name string) (appia.Session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[name]
	return s, ok
}

// Put stores a session.
func (c *SessionCache) Put(name string, s appia.Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[name] = s
}

// Drop removes a session (when its last channel is torn down for good).
func (c *SessionCache) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, name)
}

// BuildChannel instantiates a channel from its XML spec: layers are created
// bottom-up through the registry, composed into a QoS, and the channel is
// created on env.Scheduler with env.Deliver as the application upcall.
// Sessions marked sharing="global" are satisfied from (and stored into)
// env.Shared.
func BuildChannel(spec ChannelSpec, reg *LayerRegistry, env *Env) (*appia.Channel, error) {
	if len(spec.Sessions) == 0 {
		return nil, fmt.Errorf("appiaxml: channel %q has no sessions", spec.Name)
	}
	layers := make([]appia.Layer, 0, len(spec.Sessions))
	type sharing struct {
		layerName  string
		sharedName string
	}
	var shared []sharing
	for _, ss := range spec.Sessions {
		l, err := reg.New(ss.Layer, paramsOf(ss.Params), env)
		if err != nil {
			return nil, fmt.Errorf("channel %q: %w", spec.Name, err)
		}
		layers = append(layers, l)
		if ss.Sharing == "global" {
			name := ss.SharedName
			if name == "" {
				name = ss.Layer
			}
			shared = append(shared, sharing{layerName: l.Name(), sharedName: name})
		}
	}
	qosName := spec.QoS
	if qosName == "" {
		qosName = spec.Name
	}
	qos, err := appia.NewQoS(qosName, layers...)
	if err != nil {
		return nil, fmt.Errorf("channel %q: %w", spec.Name, err)
	}
	opts := []appia.ChannelOption{}
	if env.Deliver != nil {
		opts = append(opts, appia.WithDeliver(env.Deliver))
	}
	if env.Shared != nil {
		for _, sh := range shared {
			if sess, ok := env.Shared.Get(sh.sharedName); ok {
				opts = append(opts, appia.WithSharedSession(sh.layerName, sess))
			}
		}
	}
	ch := qos.CreateChannel(spec.Name, env.Scheduler, opts...)
	if env.Shared != nil {
		for _, sh := range shared {
			if _, ok := env.Shared.Get(sh.sharedName); !ok {
				env.Shared.Put(sh.sharedName, ch.SessionFor(sh.layerName))
			}
		}
	}
	return ch, nil
}
