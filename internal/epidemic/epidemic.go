// Package epidemic implements a gossip-based best-effort multicast in the
// style the paper's introduction motivates for large, geographically
// distributed groups ([18], NEEM): instead of the sender unicasting to
// every participant, each infected node forwards the message to a small
// random subset of peers for a bounded number of rounds. Per-node load is
// O(fanout) instead of O(n), at the cost of probabilistic coverage —
// the reliable layer above repairs the remainder.
package epidemic

import (
	"math/rand"

	"morpheus/internal/appia"
	"morpheus/internal/group"
)

// Config configures the gossip layer.
type Config struct {
	// Self is this node's identifier.
	Self appia.NodeID
	// InitialMembers seeds the peer set until the first view.
	InitialMembers []appia.NodeID
	// Fanout is how many random peers each infection round targets
	// (default 3).
	Fanout int
	// Rounds is the infection time-to-live (default 4).
	Rounds int
	// Seed makes peer selection deterministic for experiments.
	Seed int64
}

func (c *Config) fanout() int {
	if c.Fanout <= 0 {
		return 3
	}
	return c.Fanout
}

func (c *Config) rounds() int {
	if c.Rounds <= 0 {
		return 4
	}
	return c.Rounds
}

// Layer is the epidemic best-effort multicast bottom; place it directly
// above transport.ptp in place of group.fanout.
type Layer struct {
	appia.BaseLayer
	cfg Config
}

// NewLayer returns a gossip layer.
func NewLayer(cfg Config) *Layer {
	cfg.InitialMembers = group.NormalizeMembers(append([]appia.NodeID(nil), cfg.InitialMembers...))
	return &Layer{
		BaseLayer: appia.BaseLayer{
			LayerName: "epidemic",
			LayerSpec: appia.LayerSpec{
				Accepts: []appia.EventType{
					appia.TIface[appia.Sendable](),
					appia.T[*group.ViewInstall](),
				},
				Provides: []appia.EventType{appia.TIface[appia.Sendable]()},
			},
		},
		cfg: cfg,
	}
}

// NewSession implements appia.Layer.
func (l *Layer) NewSession() appia.Session {
	seed := l.cfg.Seed
	if seed == 0 {
		seed = int64(l.cfg.Self)*7919 + 17
	}
	return &session{
		cfg:     l.cfg,
		members: l.cfg.InitialMembers,
		seed:    seed,
		seen:    make(map[gossipID]struct{}),
		nextID:  1,
	}
}

// gossipID identifies a gossiped message (originator + local counter).
type gossipID struct {
	origin appia.NodeID
	n      uint64
}

type session struct {
	cfg     Config
	members []appia.NodeID
	seed    int64
	seen    map[gossipID]struct{}
	nextID  uint64
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
			// Addressed traffic is framed so the receiving session pops
			// symmetrically, but is not gossiped.
			s.pushHeader(sb.EnsureMsg(), gossipID{}, 0, false)
			ch.Forward(e)
			return
		}
		id := gossipID{origin: s.cfg.Self, n: s.nextID}
		s.nextID++
		s.seen[id] = struct{}{}
		s.infect(ch, e, id, s.cfg.rounds())
		appia.ReleaseEvent(e) // copies went out; the original ends here
		return
	}
	s.receive(ch, e)
}

// receive pops the gossip header, dedupes, forwards locally and re-infects.
func (s *session) receive(ch *appia.Channel, e appia.Sendable) {
	sb := e.SendableBase()
	id, ttl, gossiped, err := s.popHeader(sb.EnsureMsg())
	if err != nil {
		return // not framed by us: stale traffic
	}
	if !gossiped {
		ch.Forward(e)
		return
	}
	if _, dup := s.seen[id]; dup {
		appia.ReleaseEvent(e) // already infected: die out
		return
	}
	s.seen[id] = struct{}{}
	if ttl > 0 {
		s.infect(ch, e, id, ttl)
	}
	ch.Forward(e)
}

// infect sends copies to the message's forwarding set with the remaining
// TTL.
func (s *session) infect(ch *appia.Channel, e appia.Sendable, id gossipID, ttl int) {
	peers := s.peersFor(id, ttl)
	sess := appia.Session(s)
	for _, p := range peers {
		cp := appia.CloneSendable(e)
		cb := cp.SendableBase()
		s.pushHeader(cb.EnsureMsg(), id, ttl-1, true)
		cb.Dest = p
		_ = ch.SendFrom(sess, cp, appia.Down)
	}
}

// peersFor derives this node's forwarding set for one gossip round as a
// pure function of (layer seed, message id, remaining TTL, membership): up
// to Fanout distinct members, excluding self and the origin (which
// trivially holds its own message). Earlier versions drew from a shared
// per-session RNG stream and excluded the node the copy was first heard
// from, which made every draw — and therefore every transmission counter —
// depend on the cross-node interleaving of *all prior* message deliveries.
// Hashing the draw per (message, round) removes that coupling: the draws
// for one message no longer shift when an unrelated message is processed
// first, so the E5 gossip counters replay (up to per-message first-arrival
// depth) at equal seeds. The TTL stays in the mix because a frozen
// per-message edge set would forfeit gossip's path redundancy.
//
// The first slot of the set is not random: it is the node's successor on a
// per-message rotation of the membership ring (the same stride at every
// node, derived from the message id alone). The rotation is a bijection,
// so every member has exactly one ring-predecessor per message and the
// infection graph has no in-degree-0 holes — the deterministic analogue of
// the coverage that i.i.d. draws only provide in expectation. The
// remaining Fanout−1 slots are the hash-random picks.
func (s *session) peersFor(id gossipID, ttl int) []appia.NodeID {
	var candidates []appia.NodeID
	self := -1
	for i, m := range s.members {
		if m == s.cfg.Self {
			self = i
		}
		if m != s.cfg.Self && m != id.origin {
			candidates = append(candidates, m)
		}
	}
	f := s.cfg.fanout()
	if len(candidates) <= f {
		return candidates
	}
	var out []appia.NodeID
	if self >= 0 {
		// Ring pick: common stride per message, first eligible successor.
		n := len(s.members)
		stride := 1 + int(mix(uint64(uint32(id.origin)), id.n)%uint64(n-1))
		for k := 0; k < n-1; k++ {
			cand := s.members[(self+stride+k)%n]
			if cand != s.cfg.Self && cand != id.origin {
				out = append(out, cand)
				break
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(mix(uint64(s.seed), uint64(uint32(id.origin)), id.n, uint64(ttl)))))
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	for _, c := range candidates {
		if len(out) >= f {
			break
		}
		if len(out) > 0 && c == out[0] {
			continue // the ring pick already holds a slot
		}
		out = append(out, c)
	}
	return out
}

// mix folds the inputs through a splitmix64 finaliser, decorrelating the
// per-message RNG seeds.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return h
}

// pushHeader frames a message: [gossiped][origin][counter][ttl].
func (s *session) pushHeader(m *appia.Message, id gossipID, ttl int, gossiped bool) {
	if gossiped {
		m.PushUvarint(uint64(ttl))
		m.PushUvarint(id.n)
		m.PushUvarint(uint64(uint32(id.origin)))
	}
	m.PushBool(gossiped)
}

// popHeader removes the frame.
func (s *session) popHeader(m *appia.Message) (gossipID, int, bool, error) {
	gossiped, err := m.PopBool()
	if err != nil {
		return gossipID{}, 0, false, err
	}
	if !gossiped {
		return gossipID{}, 0, false, nil
	}
	o, err := m.PopUvarint()
	if err != nil {
		return gossipID{}, 0, false, err
	}
	n, err := m.PopUvarint()
	if err != nil {
		return gossipID{}, 0, false, err
	}
	ttl, err := m.PopUvarint()
	if err != nil {
		return gossipID{}, 0, false, err
	}
	return gossipID{origin: appia.NodeID(uint32(o)), n: n}, int(ttl), true, nil
}
