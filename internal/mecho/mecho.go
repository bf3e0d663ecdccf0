// Package mecho implements the paper's adaptive best-effort multicast
// (§3.4, "Multicast Echo"). In hybrid scenarios — mobile nodes in range of
// a base station plus hosts on the fixed infrastructure — a mobile node
// sends a single point-to-point message to a selected fixed relay, which
// echoes it to the remaining participants. This shifts fan-out cost from
// the battery- and bandwidth-constrained mobile device onto the fixed node,
// which is exactly the effect Figure 3 measures.
//
// Mecho is "designed in a modular manner and, according to its operational
// mode (wired or wireless node), it is implemented by a different
// algorithm": NewLayer selects the algorithm from Config.Mode.
package mecho

import (
	"fmt"

	"morpheus/internal/appia"
	"morpheus/internal/group"
)

// Mode selects the per-device algorithm.
type Mode int

// Operational modes.
const (
	// Wireless: multicast = one unicast to the relay.
	Wireless Mode = iota + 1
	// Wired: act as a relay, echoing wireless traffic to everyone else;
	// own multicasts fan out point-to-point.
	Wired
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Wireless:
		return "wireless"
	case Wired:
		return "wired"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures a Mecho layer.
type Config struct {
	// Self is this node's identifier.
	Self appia.NodeID
	// Mode is the operational algorithm (Wireless or Wired).
	Mode Mode
	// Relay is the fixed node that echoes for the wireless nodes. Chosen
	// by the Core policy from context information (device classes,
	// battery, bandwidth) and shipped in the configuration.
	Relay appia.NodeID
	// InitialMembers seeds the echo destination set until the first view.
	InitialMembers []appia.NodeID
}

// header flags distinguishing relay traffic.
const (
	flagDirect  = 0 // normal copy, deliver locally
	flagRelayMe = 1 // wireless → relay: echo this to the others for me
)

// Layer is the Mecho best-effort multicast bottom. Place it directly above
// transport.ptp, in place of group.fanout.
type Layer struct {
	appia.BaseLayer
	cfg Config
}

// NewLayer returns a Mecho layer in the configured mode.
func NewLayer(cfg Config) (*Layer, error) {
	switch cfg.Mode {
	case Wireless, Wired:
	default:
		return nil, fmt.Errorf("mecho: invalid mode %d", int(cfg.Mode))
	}
	if cfg.Relay == appia.NoNode {
		return nil, fmt.Errorf("mecho: a relay must be configured")
	}
	cfg.InitialMembers = group.NormalizeMembers(append([]appia.NodeID(nil), cfg.InitialMembers...))
	return &Layer{
		BaseLayer: appia.BaseLayer{
			LayerName: "mecho",
			LayerSpec: appia.LayerSpec{
				Accepts: []appia.EventType{
					appia.TIface[appia.Sendable](),
					appia.T[*group.ViewInstall](),
				},
				Provides: []appia.EventType{appia.TIface[appia.Sendable]()},
			},
		},
		cfg: cfg,
	}, nil
}

// MustLayer is NewLayer that panics on configuration errors; for use in
// tests and static compositions.
func MustLayer(cfg Config) *Layer {
	l, err := NewLayer(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// NewSession implements appia.Layer.
func (l *Layer) NewSession() appia.Session {
	return &session{cfg: l.cfg, members: l.cfg.InitialMembers}
}

type session struct {
	cfg     Config
	members []appia.NodeID
}

var _ appia.Session = (*session)(nil)

// Handle implements appia.Session.
func (s *session) Handle(ch *appia.Channel, ev appia.Event) {
	switch e := ev.(type) {
	case *group.ViewInstall:
		if e.Dir() == appia.Down {
			s.members = e.View.Members
			return
		}
		ch.Forward(ev)
	case appia.Sendable:
		s.handleSendable(ch, e)
	default:
		ch.Forward(ev)
	}
}

func (s *session) handleSendable(ch *appia.Channel, e appia.Sendable) {
	sb := e.SendableBase()
	if sb.Dir() == appia.Down {
		if sb.Dest != appia.NoNode {
			// Addressed traffic (NACK repairs, flush reports) is not
			// Mecho's business — but it must carry a header so the
			// receiving Mecho session pops symmetrically.
			sb.EnsureMsg().PushUvarint(flagDirect)
			ch.Forward(e)
			return
		}
		s.spread(ch, e)
		return
	}
	s.receive(ch, e)
}

// spread implements the mode-specific downward multicast: copies go out,
// the original ends here.
func (s *session) spread(ch *appia.Channel, e appia.Sendable) {
	sess := appia.Session(s)
	defer appia.ReleaseEvent(e)
	if s.cfg.Mode == Wireless && s.cfg.Relay != s.cfg.Self {
		// One message to the relay; it echoes to everybody else.
		cp := appia.CloneSendable(e)
		cb := cp.SendableBase()
		cb.EnsureMsg().PushUvarint(flagRelayMe)
		cb.Dest = s.cfg.Relay
		_ = ch.SendFrom(sess, cp, appia.Down)
		return
	}
	// Wired mode (or the relay itself): plain point-to-point fan-out.
	for _, m := range s.members {
		if m == s.cfg.Self {
			continue
		}
		cp := appia.CloneSendable(e)
		cb := cp.SendableBase()
		cb.EnsureMsg().PushUvarint(flagDirect)
		cb.Dest = m
		_ = ch.SendFrom(sess, cp, appia.Down)
	}
}

// receive pops the Mecho header and, on the relay, echoes flagged traffic
// to the remaining participants.
func (s *session) receive(ch *appia.Channel, e appia.Sendable) {
	sb := e.SendableBase()
	m := sb.EnsureMsg()
	flag, err := m.PopUvarint()
	if err != nil {
		return // not Mecho-framed: drop (stale traffic from another config)
	}
	if flag != flagRelayMe {
		ch.Forward(e)
		return
	}
	// We are the relay for this message: echo to everyone except the
	// originator and ourselves, then deliver locally.
	origin := sb.Source
	sess := appia.Session(s)
	for _, mbr := range s.members {
		if mbr == s.cfg.Self || mbr == origin {
			continue
		}
		cp := appia.CloneSendable(e)
		cb := cp.SendableBase()
		cb.EnsureMsg().PushUvarint(flagDirect)
		cb.Dest = mbr
		cb.Class = sb.Class
		_ = ch.SendFrom(sess, cp, appia.Down)
	}
	ch.Forward(e)
}
