package group

import (
	"morpheus/internal/appia"
)

// FanoutConfig configures the point-to-point fan-out best-effort multicast.
type FanoutConfig struct {
	// Self is this node's identifier; it is excluded from the fan-out.
	Self appia.NodeID
	// InitialMembers seeds the destination set until the first
	// ViewInstall arrives from the membership layer.
	InitialMembers []appia.NodeID
}

// FanoutLayer is the paper's "straightforward design of a multicast
// protocol": a sequence of point-to-point messages, one per participant
// (§1). It is the non-optimized baseline of Figure 3 and the default
// best-effort bottom in homogeneous fixed-network scenarios without native
// multicast.
type FanoutLayer struct {
	appia.BaseLayer
	cfg FanoutConfig
}

// NewFanoutLayer returns a fan-out best-effort multicast layer.
func NewFanoutLayer(cfg FanoutConfig) *FanoutLayer {
	cfg.InitialMembers = NormalizeMembers(append([]appia.NodeID(nil), cfg.InitialMembers...))
	return &FanoutLayer{
		BaseLayer: appia.BaseLayer{
			LayerName: "group.fanout",
			LayerSpec: appia.LayerSpec{
				Accepts: []appia.EventType{
					appia.TIface[appia.Sendable](),
					appia.T[*ViewInstall](),
				},
				Provides: []appia.EventType{appia.TIface[appia.Sendable]()},
			},
		},
		cfg: cfg,
	}
}

// NewSession implements appia.Layer.
func (l *FanoutLayer) NewSession() appia.Session {
	return &fanoutSession{cfg: l.cfg, members: l.cfg.InitialMembers}
}

type fanoutSession struct {
	cfg     FanoutConfig
	members []appia.NodeID
}

var _ appia.Session = (*fanoutSession)(nil)

// Handle implements appia.Session. Downward unaddressed Sendables are
// cloned once per remote member; everything else passes through.
func (s *fanoutSession) Handle(ch *appia.Channel, ev appia.Event) {
	switch e := ev.(type) {
	case *ViewInstall:
		if e.Dir() == appia.Down {
			s.members = e.View.Members
			return // consumed: nothing below needs it
		}
		ch.Forward(ev)
	case appia.Sendable:
		sb := e.SendableBase()
		if sb.Dir() == appia.Down && sb.Dest == appia.NoNode {
			s.spread(ch, e)
			return // consumed: replaced by the per-member copies
		}
		ch.Forward(ev)
	default:
		ch.Forward(ev)
	}
}

// spread unicasts one copy per remote member; the original ends here.
func (s *fanoutSession) spread(ch *appia.Channel, e appia.Sendable) {
	sess := appia.Session(s)
	defer appia.ReleaseEvent(e)
	for _, m := range s.members {
		if m == s.cfg.Self {
			continue
		}
		cp := appia.CloneSendable(e)
		cp.SendableBase().Dest = m
		if err := ch.SendFrom(sess, cp, appia.Down); err != nil {
			return // channel tearing down
		}
	}
}
