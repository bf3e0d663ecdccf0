// Package cocaditem implements the paper's Context Capture and
// Dissemination System (§3.2): a set of per-node context retrievers plus a
// topic-based publish/subscribe component that spreads the collected
// information to interested parties over the group communication control
// channel. The control component (internal/core) subscribes to the topics
// its reconfiguration policies need.
package cocaditem

import (
	"math"
	"sync"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/clock"
	"morpheus/internal/group"
	"morpheus/internal/netio"
)

// Well-known topics published by the built-in retrievers.
const (
	TopicBattery     = "battery"      // Num: remaining fraction [0,1]
	TopicDeviceClass = "device-class" // Str: "fixed" | "mobile"; Num: 1 if mobile
	TopicLinkLoss    = "link-loss"    // Num: observed loss probability [0,1]
	TopicBandwidth   = "bandwidth"    // Num: available bandwidth (relative units)
)

// Sample is one context observation.
type Sample struct {
	Topic string
	Node  appia.NodeID
	Num   float64
	Str   string
	When  time.Time
}

// Retriever produces local context observations. Implementations are
// invoked on the scheduler goroutine at every sampling tick and must not
// block.
type Retriever interface {
	// Topic names the published topic.
	Topic() string
	// Retrieve reads the current local value.
	Retrieve() (num float64, str string)
}

// FuncRetriever adapts a function to the Retriever interface.
type FuncRetriever struct {
	TopicName string
	Fn        func() (float64, string)
}

// Topic implements Retriever.
func (f FuncRetriever) Topic() string { return f.TopicName }

// Retrieve implements Retriever.
func (f FuncRetriever) Retrieve() (float64, string) { return f.Fn() }

// BatteryRetriever publishes the endpoint's remaining battery fraction
// (1 on substrates without an energy model — a mains-powered device).
func BatteryRetriever(ep netio.Endpoint) Retriever {
	return FuncRetriever{TopicName: TopicBattery, Fn: func() (float64, string) {
		return netio.BatteryFraction(ep), ""
	}}
}

// DeviceClassRetriever publishes whether the device is fixed or mobile —
// the context bit Figure 2's hybrid configuration hinges on.
func DeviceClassRetriever(ep netio.Endpoint) Retriever {
	return FuncRetriever{TopicName: TopicDeviceClass, Fn: func() (float64, string) {
		if ep.Kind() == netio.Mobile {
			return 1, "mobile"
		}
		return 0, "fixed"
	}}
}

// LinkLossRetriever publishes the loss rate of the node's segment, reading
// whatever error source the substrate exposes (the simulated NIC's
// counters on vnet; a driver-statistics reader on a real substrate).
func LinkLossRetriever(src netio.LossSource, segment string) Retriever {
	return FuncRetriever{TopicName: TopicLinkLoss, Fn: func() (float64, string) {
		loss, err := src.SegmentLoss(segment)
		if err != nil {
			return 0, ""
		}
		return loss, ""
	}}
}

// PublishEvent carries one sample on the control channel. It embeds
// CastEvent, inheriting the reliable multicast guarantees.
type PublishEvent struct {
	group.CastEvent
	Sample Sample
}

// RegisterWireEvents registers cocaditem's wire kinds (idempotent).
func RegisterWireEvents(reg *appia.EventKindRegistry) {
	if reg == nil {
		reg = appia.DefaultRegistry()
	}
	appia.RegisterKind[PublishEvent](reg, "ctx.publish")
}

// Config configures the Cocaditem layer.
type Config struct {
	// Self is this node's identifier.
	Self appia.NodeID
	// Interval is the sampling/publication period (default 100ms).
	Interval time.Duration
	// Retrievers are the local context sources.
	Retrievers []Retriever
	// PublishOnChange, when true, republishes only when a value moved by
	// more than Epsilon (plus a keepalive every 10 intervals); this keeps
	// the control traffic modest, matching the paper's note that the
	// adaptive version adds only a small control overhead.
	PublishOnChange bool
	// Epsilon is the change threshold for PublishOnChange (default 0.01).
	Epsilon float64
	// Clock stamps samples (Sample.When). Nil means wall clock; the
	// sampling tick itself runs on the channel scheduler's clock.
	Clock clock.Clock
}

func (c *Config) clock() clock.Clock { return clock.Or(c.Clock) }

func (c *Config) interval() time.Duration {
	if c.Interval <= 0 {
		return 100 * time.Millisecond
	}
	return c.Interval
}

func (c *Config) epsilon() float64 {
	if c.Epsilon <= 0 {
		return 0.01
	}
	return c.Epsilon
}

// Layer is the Cocaditem session factory; place it above group.gms on the
// control channel.
type Layer struct {
	appia.BaseLayer
	cfg Config
}

// NewLayer returns a Cocaditem layer.
func NewLayer(cfg Config) *Layer {
	return &Layer{
		BaseLayer: appia.BaseLayer{
			LayerName: "cocaditem",
			LayerSpec: appia.LayerSpec{
				Accepts: []appia.EventType{
					appia.T[*PublishEvent](),
					appia.T[*ctxTick](),
					appia.T[*appia.ChannelInit](),
				},
				Provides: []appia.EventType{appia.T[*PublishEvent]()},
			},
		},
		cfg: cfg,
	}
}

// NewSession implements appia.Layer.
func (l *Layer) NewSession() appia.Session {
	return &Session{
		cfg:   l.cfg,
		store: make(map[string]map[appia.NodeID]Sample),
		last:  make(map[string]Sample),
	}
}

// ctxTick is the private sampling timer event.
type ctxTick struct {
	appia.EventBase
}

// Subscriber receives samples for a subscribed topic. Called on the
// scheduler goroutine of the subscribing node's stack.
type Subscriber func(s Sample)

// Session is the per-node Cocaditem instance. The query methods (Snapshot,
// Latest) are safe from any goroutine; Subscribe may be called at any time.
type Session struct {
	cfg      Config
	stopTick func()
	ticks    uint64

	mu    sync.Mutex
	store map[string]map[appia.NodeID]Sample
	last  map[string]Sample // last published local value per topic
	subs  []subscription
}

type subscription struct {
	topic string
	fn    Subscriber
}

var _ appia.Session = (*Session)(nil)

// Handle implements appia.Session.
func (s *Session) Handle(ch *appia.Channel, ev appia.Event) {
	switch e := ev.(type) {
	case *appia.ChannelInit:
		sess := appia.Session(s)
		s.stopTick = ch.DeliverEvery(s.cfg.interval(), sess, func() appia.Event { return &ctxTick{} })
		ch.Forward(ev)
	case *appia.ChannelClose:
		if s.stopTick != nil {
			s.stopTick()
		}
		ch.Forward(ev)
	case *ctxTick:
		s.sample(ch)
	case *PublishEvent:
		s.onPublish(ch, e)
	default:
		ch.Forward(ev)
	}
}

// sample reads every retriever and publishes.
func (s *Session) sample(ch *appia.Channel) {
	s.ticks++
	keepalive := s.ticks%10 == 0
	for _, r := range s.cfg.Retrievers {
		num, str := r.Retrieve()
		sm := Sample{Topic: r.Topic(), Node: s.cfg.Self, Num: num, Str: str, When: s.cfg.clock().Now()}
		if s.cfg.PublishOnChange && !keepalive {
			s.mu.Lock()
			prev, seen := s.last[r.Topic()]
			s.mu.Unlock()
			if seen && prev.Str == str && math.Abs(prev.Num-num) <= s.cfg.epsilon() {
				continue
			}
		}
		s.mu.Lock()
		s.last[r.Topic()] = sm
		s.mu.Unlock()
		s.publish(ch, sm)
		// Local samples go straight into the store too: the paper's
		// adaptation depends on both local and remote context.
		s.record(sm)
	}
}

// publish multicasts a sample on the control channel.
func (s *Session) publish(ch *appia.Channel, sm Sample) {
	ev := &PublishEvent{Sample: sm}
	ev.Class = appia.ClassControl
	m := ev.EnsureMsg()
	m.PushString(sm.Str)
	m.PushUint64(math.Float64bits(sm.Num))
	m.PushUvarint(uint64(uint32(sm.Node)))
	m.PushString(sm.Topic)
	sess := appia.Session(s)
	_ = ch.SendFrom(sess, ev, appia.Down)
}

// onPublish decodes and records a remote (or self-delivered) sample.
func (s *Session) onPublish(ch *appia.Channel, e *PublishEvent) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	m := e.EnsureMsg()
	topic, err := m.PopString()
	if err != nil {
		return
	}
	nodeU, err := m.PopUvarint()
	if err != nil {
		return
	}
	bits, err := m.PopUint64()
	if err != nil {
		return
	}
	str, err := m.PopString()
	if err != nil {
		return
	}
	sm := Sample{
		Topic: topic,
		Node:  appia.NodeID(uint32(nodeU)),
		Num:   math.Float64frombits(bits),
		Str:   str,
		When:  s.cfg.clock().Now(),
	}
	if sm.Node == s.cfg.Self {
		return // self-delivered copy: already recorded at sampling time
	}
	e.Sample = sm
	s.record(sm)
}

// record stores a sample and notifies subscribers.
func (s *Session) record(sm Sample) {
	s.mu.Lock()
	byNode, ok := s.store[sm.Topic]
	if !ok {
		byNode = make(map[appia.NodeID]Sample)
		s.store[sm.Topic] = byNode
	}
	byNode[sm.Node] = sm
	var notify []Subscriber
	for _, sub := range s.subs {
		if sub.topic == sm.Topic || sub.topic == "" {
			notify = append(notify, sub.fn)
		}
	}
	s.mu.Unlock()
	for _, fn := range notify {
		fn(sm)
	}
}

// Inject records a sample directly into the local store, bypassing the
// network. Used by tests and by components that compute derived context
// locally.
func (s *Session) Inject(sm Sample) { s.record(sm) }

// Subscribe registers interest in a topic ("" means all topics), following
// the prototype's topic-based publish-subscribe interface.
func (s *Session) Subscribe(topic string, fn Subscriber) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, subscription{topic: topic, fn: fn})
}

// Snapshot returns a deep copy of the context store.
func (s *Session) Snapshot() map[string]map[appia.NodeID]Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]map[appia.NodeID]Sample, len(s.store))
	for topic, byNode := range s.store {
		cp := make(map[appia.NodeID]Sample, len(byNode))
		for n, sm := range byNode {
			cp[n] = sm
		}
		out[topic] = cp
	}
	return out
}

// Latest returns the most recent sample for (topic, node).
func (s *Session) Latest(topic string, node appia.NodeID) (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byNode, ok := s.store[topic]
	if !ok {
		return Sample{}, false
	}
	sm, ok := byNode[node]
	return sm, ok
}
