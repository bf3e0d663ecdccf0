package transport

import (
	"morpheus/internal/appia"
)

// NativeMulticastConfig configures the native multicast bottom.
type NativeMulticastConfig struct {
	Config
	// Segment is the substrate segment whose native multicast is used
	// (a vnet segment, or a udpnet IP-multicast group).
	Segment string
}

// NativeMulticastLayer transmits unaddressed downward events as a single
// native multicast on a segment (IP multicast on a LAN, in the paper's
// terms: "when available, it may also use native multicast"). Addressed
// traffic passes through to the point-to-point layer below. Reception needs
// no work here: frames arrive through the shared PTP port binding.
type NativeMulticastLayer struct {
	appia.BaseLayer
	cfg NativeMulticastConfig
}

// NewNativeMulticastLayer returns a native multicast bottom layer; place it
// directly above transport.ptp.
func NewNativeMulticastLayer(cfg NativeMulticastConfig) *NativeMulticastLayer {
	return &NativeMulticastLayer{
		BaseLayer: appia.BaseLayer{
			LayerName: "transport.nativemcast",
			LayerSpec: appia.LayerSpec{
				Accepts:  []appia.EventType{appia.TIface[appia.Sendable]()},
				Provides: []appia.EventType{appia.TIface[appia.Sendable]()},
			},
		},
		cfg: cfg,
	}
}

// NewSession implements appia.Layer.
func (l *NativeMulticastLayer) NewSession() appia.Session {
	return &nmcastSession{cfg: l.cfg}
}

type nmcastSession struct {
	cfg NativeMulticastConfig

	// scratch is the reusable wire buffer; see ptpSession.scratch.
	scratch []byte
}

var _ appia.Session = (*nmcastSession)(nil)

// Handle implements appia.Session.
func (s *nmcastSession) Handle(ch *appia.Channel, ev appia.Event) {
	e, ok := ev.(appia.Sendable)
	if !ok {
		ch.Forward(ev)
		return
	}
	sb := e.SendableBase()
	if sb.Dir() != appia.Down || sb.Dest != appia.NoNode {
		ch.Forward(ev)
		return
	}
	defer appia.ReleaseEvent(e) // the event ends here, as in ptpSession.transmit
	wire, err := MarshalAppend(s.scratch[:0], s.cfg.registry(), ch.Name(), e)
	if err != nil {
		s.cfg.logf("transport.nativemcast[%d]: marshal %T: %v", s.cfg.Node.ID(), e, err)
		return
	}
	s.scratch = wire[:0]
	class := sb.Class
	if class == "" {
		class = appia.ClassData
	}
	if err := s.cfg.Node.Multicast(s.cfg.Segment, s.cfg.Port, class, wire); err != nil {
		s.cfg.logf("transport.nativemcast[%d]: %v", s.cfg.Node.ID(), err)
	}
}
