// Package transport provides the bottom-most Appia layers: they bind a
// channel to a network endpoint (any netio substrate — the vnet simulator,
// the in-process loopback, or real UDP sockets), serialising outgoing
// Sendable events (event kind name + message header stack) and
// reconstructing incoming ones through the event kind registry.
//
// Two layers are provided:
//
//   - PTP: point-to-point. Downward events with a Dest are unicast;
//     events with Dest == NoNode are handed to whatever sits directly above
//     (usually a best-effort-multicast layer) — PTP itself never fans out.
//   - Fanout helpers live in the group package; native multicast binding is
//     in this package because it talks to the substrate segment directly.
package transport

import (
	"encoding/binary"
	"fmt"
	"sync"

	"morpheus/internal/appia"
	"morpheus/internal/netio"
)

// Config configures a transport layer instance.
type Config struct {
	// Node is the network attachment point.
	Node netio.Endpoint
	// Port isolates this channel's traffic; reconfiguration epochs use
	// distinct ports so stale traffic is dropped by the network.
	Port string
	// Registry resolves event kinds; nil means appia.DefaultRegistry().
	Registry *appia.EventKindRegistry
	// Logf, when set, receives diagnostics about undecodable frames; nil
	// discards them (library code never writes to the global logger).
	Logf netio.Logf
}

func (c *Config) registry() *appia.EventKindRegistry {
	if c.Registry == nil {
		return appia.DefaultRegistry()
	}
	return c.Registry
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// PTPLayer is the point-to-point transport layer.
type PTPLayer struct {
	appia.BaseLayer
	cfg Config
}

// NewPTPLayer returns a point-to-point transport layer.
func NewPTPLayer(cfg Config) *PTPLayer {
	return &PTPLayer{
		BaseLayer: appia.BaseLayer{
			LayerName: "transport.ptp",
			LayerSpec: appia.LayerSpec{
				Accepts:  []appia.EventType{appia.TIface[appia.Sendable]()},
				Provides: []appia.EventType{appia.TIface[appia.Sendable]()},
			},
		},
		cfg: cfg,
	}
}

// NewSession implements appia.Layer.
func (l *PTPLayer) NewSession() appia.Session {
	return &ptpSession{cfg: l.cfg}
}

// ptpSession binds one or more channels to the node port. When shared
// between channels (the usual arrangement for control+data), incoming
// frames are delivered to the channel named in the frame.
type ptpSession struct {
	cfg Config

	// scratch is the reusable wire buffer for outgoing frames. transmit
	// only runs on the channel's scheduler goroutine and the vnet copies
	// the payload before Send returns, so one buffer per session suffices.
	scratch []byte

	mu       sync.Mutex
	channels map[string]*appia.Channel // channel name -> channel
	bound    bool
}

var _ appia.Session = (*ptpSession)(nil)

// Handle implements appia.Session.
func (s *ptpSession) Handle(ch *appia.Channel, ev appia.Event) {
	switch e := ev.(type) {
	case *appia.ChannelInit:
		s.onInit(ch)
		ch.Forward(ev)
	case *appia.ChannelClose:
		s.onClose(ch)
		ch.Forward(ev)
	case appia.Sendable:
		if e.SendableBase().Dir() == appia.Down {
			s.transmit(ch, e)
			return // consumed: the frame left through the network
		}
		ch.Forward(ev)
	default:
		ch.Forward(ev)
	}
}

func (s *ptpSession) onInit(ch *appia.Channel) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.channels == nil {
		s.channels = make(map[string]*appia.Channel)
	}
	s.channels[ch.Name()] = ch
	if s.bound {
		return
	}
	s.bound = true
	s.cfg.Node.Handle(s.cfg.Port, s.receive)
}

func (s *ptpSession) onClose(ch *appia.Channel) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.channels, ch.Name())
	if len(s.channels) == 0 && s.bound {
		s.bound = false
		s.cfg.Node.Handle(s.cfg.Port, nil)
	}
}

// transmit marshals and unicasts a downward event, which ends here: the
// substrate has copied the frame by the time Send returns, so the event and
// its message are released on every way out.
func (s *ptpSession) transmit(ch *appia.Channel, e appia.Sendable) {
	sb := e.SendableBase()
	defer appia.ReleaseEvent(e)
	if sb.Dest == appia.NoNode {
		// Nothing above chose a destination: a composition bug. Drop
		// loudly rather than guessing.
		s.cfg.logf("transport.ptp[%d]: dropping %T with no destination", s.cfg.Node.ID(), e)
		return
	}
	wire, err := MarshalAppend(s.scratch[:0], s.cfg.registry(), ch.Name(), e)
	if err != nil {
		s.cfg.logf("transport.ptp[%d]: marshal %T: %v", s.cfg.Node.ID(), e, err)
		return
	}
	s.scratch = wire[:0]
	class := sb.Class
	if class == "" {
		class = appia.ClassData
	}
	// Unreachable destinations and dead batteries are normal-course
	// distributed-systems weather; upper layers recover via their own
	// timeouts.
	_ = s.cfg.Node.Send(sb.Dest, s.cfg.Port, class, wire)
}

// receive reconstructs a frame and inserts it into the addressed channel.
func (s *ptpSession) receive(src netio.NodeID, port string, payload []byte) {
	chName, ev, err := unmarshal(s.cfg.registry(), payload)
	if err != nil {
		s.cfg.logf("transport.ptp[%d]: undecodable frame from %d: %v", s.cfg.Node.ID(), src, err)
		return
	}
	sb := ev.SendableBase()
	sb.Source = src
	sb.Dest = s.cfg.Node.ID()
	s.mu.Lock()
	ch := s.channels[string(chName)]
	s.mu.Unlock()
	if ch == nil {
		return // channel gone (reconfiguration race): drop
	}
	_ = ch.Insert(ev, appia.Up)
}

// Marshal encodes an event for the wire: channel name, kind name, then the
// message bytes.
func Marshal(reg *appia.EventKindRegistry, channelName string, e appia.Sendable) ([]byte, error) {
	return MarshalAppend(nil, reg, channelName, e)
}

// MarshalAppend encodes like Marshal but appends to dst, so per-frame
// senders can reuse one scratch buffer instead of allocating. Substrates
// copy (or finish transmitting) payloads before Send/Multicast return,
// which is what makes the reuse safe. The event is only read: it can be
// marshalled again, and its message stays the caller's to release.
func MarshalAppend(dst []byte, reg *appia.EventKindRegistry, channelName string, e appia.Sendable) ([]byte, error) {
	kind, err := reg.KindOf(e)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	dst = binary.AppendUvarint(dst, uint64(len(channelName)))
	dst = append(dst, channelName...)
	dst = binary.AppendUvarint(dst, uint64(len(kind)))
	dst = append(dst, kind...)
	if m := e.SendableBase().Msg; m != nil {
		dst = append(dst, m.Bytes()...)
	}
	return dst, nil
}

// Unmarshal decodes a wire frame into a fresh event of the encoded kind, whose
// message is a copy of the frame with both headers popped.
func Unmarshal(reg *appia.EventKindRegistry, payload []byte) (string, appia.Sendable, error) {
	chName, ev, err := unmarshal(reg, payload)
	return string(chName), ev, err
}

// unmarshal is Unmarshal with the channel name still borrowed: it aliases the
// event's message buffer.
func unmarshal(reg *appia.EventKindRegistry, payload []byte) ([]byte, appia.Sendable, error) {
	m := appia.FromWire(payload)
	chName, err := m.PopBytes()
	if err != nil {
		return nil, nil, fmt.Errorf("transport: channel name: %w", err)
	}
	kind, err := m.PopBytes()
	if err != nil {
		return nil, nil, fmt.Errorf("transport: kind: %w", err)
	}
	ev, err := reg.NewFromBytes(kind)
	if err != nil {
		return nil, nil, err
	}
	ev.SendableBase().Msg = m
	return chName, ev, nil
}
