// Package stack wires the protocol packages into the appiaxml layer
// registry and provides the StackManager: the local module of the Core
// sub-system (paper §3.3) that deploys a new configuration of the
// communication protocols on its node — tearing down the quiesced data
// channel and rebuilding it from the XML description shipped by the
// coordinator.
package stack

import (
	"fmt"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/epidemic"
	"morpheus/internal/fec"
	"morpheus/internal/group"
	"morpheus/internal/mecho"
	"morpheus/internal/netio"
	"morpheus/internal/transport"
)

// NewStandardRegistry returns a layer registry with every protocol of this
// repository registered under its canonical name:
//
//	transport.ptp, transport.nativemcast, group.fanout, group.nak,
//	group.gms, group.causal, group.total, mecho, epidemic, fec
//
// Factories draw identity, membership and network attachment from the
// appiaxml.Env, so one XML document serves every node: parameters that must
// differ per node (such as Mecho's operational mode) support an "auto"
// value resolved locally.
func NewStandardRegistry() *appiaxml.LayerRegistry {
	reg := appiaxml.NewLayerRegistry()

	reg.MustRegister("transport.ptp", func(p appiaxml.Params, env *appiaxml.Env) (appia.Layer, error) {
		return transport.NewPTPLayer(transport.Config{
			Node: env.Node,
			Port: env.Port,
			Logf: env.Logf,
		}), nil
	})

	reg.MustRegister("transport.nativemcast", func(p appiaxml.Params, env *appiaxml.Env) (appia.Layer, error) {
		seg, ok := p.Get("segment")
		if !ok {
			return nil, fmt.Errorf("%w: transport.nativemcast needs segment", appiaxml.ErrMissingParam)
		}
		return transport.NewNativeMulticastLayer(transport.NativeMulticastConfig{
			Config: transport.Config{
				Node: env.Node,
				Port: env.Port,
				Logf: env.Logf,
			},
			Segment: seg,
		}), nil
	})

	reg.MustRegister("group.fanout", func(p appiaxml.Params, env *appiaxml.Env) (appia.Layer, error) {
		return group.NewFanoutLayer(group.FanoutConfig{
			Self:           env.Self,
			InitialMembers: env.Members,
		}), nil
	})

	reg.MustRegister("group.nak", func(p appiaxml.Params, env *appiaxml.Env) (appia.Layer, error) {
		nackDelay, err := p.Duration("nack-delay", 0)
		if err != nil {
			return nil, err
		}
		stable, err := p.Duration("stable-interval", 0)
		if err != nil {
			return nil, err
		}
		stableEvery, err := p.Int("stable-every", 0)
		if err != nil {
			return nil, err
		}
		cfg := group.NakConfig{
			Self:           env.Self,
			Group:          env.Group,
			InitialMembers: env.Members,
			NackDelay:      nackDelay,
			StableInterval: stable,
			StableEvery:    stableEvery,
			Credits:        env.Credits,
			MaxRetained:    RetainedCap(env.SendWindow),
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return group.NewNakLayer(cfg), nil
	})

	reg.MustRegister("group.gms", func(p appiaxml.Params, env *appiaxml.Env) (appia.Layer, error) {
		fd, err := p.Bool("enable-fd", false)
		if err != nil {
			return nil, err
		}
		hb, err := p.Duration("heartbeat", 0)
		if err != nil {
			return nil, err
		}
		suspect, err := p.Duration("suspect-after", 0)
		if err != nil {
			return nil, err
		}
		return group.NewGMSLayer(group.GMSConfig{
			Self:              env.Self,
			InitialMembers:    env.Members,
			EnableFD:          fd,
			HeartbeatInterval: hb,
			SuspectAfter:      suspect,
			Clock:             env.Clock,
		}), nil
	})

	reg.MustRegister("group.causal", func(p appiaxml.Params, env *appiaxml.Env) (appia.Layer, error) {
		return group.NewCausalLayer(group.CausalConfig{Self: env.Self}), nil
	})

	reg.MustRegister("group.total", func(p appiaxml.Params, env *appiaxml.Env) (appia.Layer, error) {
		return group.NewTotalLayer(group.TotalConfig{Self: env.Self}), nil
	})

	reg.MustRegister("mecho", func(p appiaxml.Params, env *appiaxml.Env) (appia.Layer, error) {
		relay, err := p.NodeID("relay", appia.NoNode)
		if err != nil {
			return nil, err
		}
		mode, err := resolveMechoMode(p.Str("mode", "auto"), env, relay)
		if err != nil {
			return nil, err
		}
		return mecho.NewLayer(mecho.Config{
			Self:           env.Self,
			Mode:           mode,
			Relay:          relay,
			InitialMembers: env.Members,
		})
	})

	reg.MustRegister("epidemic", func(p appiaxml.Params, env *appiaxml.Env) (appia.Layer, error) {
		fanout, err := p.Int("fanout", 0)
		if err != nil {
			return nil, err
		}
		rounds, err := p.Int("rounds", 0)
		if err != nil {
			return nil, err
		}
		return epidemic.NewLayer(epidemic.Config{
			Self:           env.Self,
			InitialMembers: env.Members,
			Fanout:         fanout,
			Rounds:         rounds,
		}), nil
	})

	reg.MustRegister("fec", func(p appiaxml.Params, env *appiaxml.Env) (appia.Layer, error) {
		k, err := p.Int("k", 0)
		if err != nil {
			return nil, err
		}
		m, err := p.Int("m", 0)
		if err != nil {
			return nil, err
		}
		flush, err := p.Duration("flush-after", 0)
		if err != nil {
			return nil, err
		}
		return fec.NewLayer(fec.LayerConfig{
			Self:       env.Self,
			K:          k,
			M:          m,
			FlushAfter: flush,
		}), nil
	})

	return reg
}

// resolveMechoMode maps the "mode" parameter to a concrete algorithm. The
// "auto" value lets one document serve the whole heterogeneous group: the
// relay always echoes (wired algorithm); other mobiles run the wireless
// algorithm; fixed nodes run the wired one.
func resolveMechoMode(mode string, env *appiaxml.Env, relay appia.NodeID) (mecho.Mode, error) {
	switch mode {
	case "wireless":
		return mecho.Wireless, nil
	case "wired":
		return mecho.Wired, nil
	case "auto", "":
		if env.Self == relay {
			return mecho.Wired, nil
		}
		if env.Node != nil && env.Node.Kind() == netio.Mobile {
			return mecho.Wireless, nil
		}
		return mecho.Wired, nil
	default:
		return 0, fmt.Errorf("%w: mecho mode %q", appiaxml.ErrInvalidParam, mode)
	}
}

// RegisterAllWireEvents registers every wire event kind used by the
// standard layers (idempotent).
func RegisterAllWireEvents(reg *appia.EventKindRegistry) {
	group.RegisterWireEvents(reg)
	fec.RegisterWireEvents(reg)
}

// defaultQuiesceTimeout bounds how long a reconfiguration waits for view
// synchrony before force-closing the old channel.
const defaultQuiesceTimeout = 5 * time.Second

// RetainedCap derives the reliable layer's per-ring retention cap from a
// send-window size: with credits bounding each member to `window`
// unstable casts, no retention ring should exceed the window plus the
// control casts interleaved with it — 2× is the safety margin before the
// cap starts evicting (see group.NakConfig.MaxRetained).
func RetainedCap(window int) int { return 2 * window }

// MailboxBounds derives scheduler admission watermarks from a send-window
// size: one cast fans into a handful of intra-stack hops, so the gate
// closes at 8× the window and reopens (hysteresis) at 2×. The bound is on
// external ingress only — see appia.Scheduler.SetMailboxBounds.
func MailboxBounds(window int) (high, low int) { return 8 * window, 2 * window }
