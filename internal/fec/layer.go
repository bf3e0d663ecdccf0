package fec

import (
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/group"
)

// Shard is the wire event carrying one FEC shard. Headers: origin, block,
// index, kUsed (data shards in the block), parity flag.
type Shard struct {
	appia.SendableEvent
}

// RegisterWireEvents registers the fec wire kinds (idempotent; nil means
// the default registry).
func RegisterWireEvents(reg *appia.EventKindRegistry) {
	if reg == nil {
		reg = appia.DefaultRegistry()
	}
	appia.RegisterKind[Shard](reg, "fec.shard")
}

// LayerConfig configures the FEC layer.
type LayerConfig struct {
	// Self is this node's identifier.
	Self appia.NodeID
	// K is the number of data casts per block (default 8).
	K int
	// M is the number of parity shards per block (default 2).
	M int
	// FlushAfter closes a partial block if no new casts arrive within
	// this window, so tail messages get parity protection too
	// (default 50ms).
	FlushAfter time.Duration
}

func (c *LayerConfig) k() int {
	if c.K <= 0 {
		return 8
	}
	return c.K
}

func (c *LayerConfig) m() int {
	if c.M <= 0 {
		return 2
	}
	return c.M
}

func (c *LayerConfig) flushAfter() time.Duration {
	if c.FlushAfter <= 0 {
		return 50 * time.Millisecond
	}
	return c.FlushAfter
}

// Layer is the error-masking alternative to the NAK layer (§2: "for larger
// error rates it is preferable to mask the errors"). Outgoing casts are
// sent immediately (the code is systematic) and grouped into blocks; when a
// block closes, parity shards follow. Receivers reconstruct missing casts
// from any K of the K+M shards with zero additional round trips.
type Layer struct {
	appia.BaseLayer
	cfg LayerConfig
}

// NewLayer returns a FEC layer; place it above the best-effort bottom.
func NewLayer(cfg LayerConfig) *Layer {
	return &Layer{
		BaseLayer: appia.BaseLayer{
			LayerName: "fec",
			LayerSpec: appia.LayerSpec{
				Accepts: []appia.EventType{
					appia.TIface[group.Caster](),
					appia.T[*Shard](),
					appia.T[*fecFlushTick](),
				},
				Provides: []appia.EventType{appia.T[*Shard]()},
			},
		},
		cfg: cfg,
	}
}

// NewSession implements appia.Layer.
func (l *Layer) NewSession() appia.Session {
	return &fecSession{
		cfg:    l.cfg,
		blocks: make(map[appia.NodeID]map[uint64]*rxBlock),
	}
}

// fecFlushTick is the private partial-block flush timer.
type fecFlushTick struct {
	appia.EventBase
	block uint64
}

// rxBlock accumulates shards of one (origin, block).
type rxBlock struct {
	kUsed     int
	shardLen  int // length of padded shards, learned from parity
	data      map[int][]byte
	parity    map[int][]byte
	delivered map[int]bool
	done      bool
}

type fecSession struct {
	cfg LayerConfig

	// Sender state.
	block      uint64
	pending    [][]byte // serialized casts of the open block
	flushTimer func()

	// Receiver state: origin -> block id -> assembly.
	blocks map[appia.NodeID]map[uint64]*rxBlock
}

var _ appia.Session = (*fecSession)(nil)

// Handle implements appia.Session.
func (s *fecSession) Handle(ch *appia.Channel, ev appia.Event) {
	switch e := ev.(type) {
	case *Shard:
		if e.Dir() == appia.Up {
			s.receiveShard(ch, e)
			return
		}
		ch.Forward(ev)
	case *fecFlushTick:
		if e.block == s.block && len(s.pending) > 0 {
			s.closeBlock(ch)
		}
	default:
		if c, ok := ev.(group.Caster); ok {
			cb := c.CastBase()
			if cb.Dir() == appia.Down && cb.Dest == appia.NoNode {
				s.sendCast(ch, c)
				return
			}
		}
		ch.Forward(ev)
	}
}

// sendCast emits the cast immediately as a data shard and adds it to the
// open block.
func (s *fecSession) sendCast(ch *appia.Channel, c group.Caster) {
	payload, err := encodeCast(c)
	if err != nil {
		return
	}
	idx := len(s.pending)
	s.pending = append(s.pending, payload)

	sh := &Shard{}
	sh.Class = c.CastBase().Class
	if sh.Class == "" {
		sh.Class = appia.ClassData
	}
	sh.Msg = appia.NewMessage(payload)
	pushShardHeader(sh.Msg, s.cfg.Self, s.block, idx, 0, false)
	sess := appia.Session(s)
	_ = ch.SendFrom(sess, sh, appia.Down)

	if len(s.pending) >= s.cfg.k() {
		s.closeBlock(ch)
		return
	}
	s.armFlush(ch)
}

// armFlush (re)schedules the partial-block flush.
func (s *fecSession) armFlush(ch *appia.Channel) {
	if s.flushTimer != nil {
		s.flushTimer()
	}
	sess := appia.Session(s)
	s.flushTimer = ch.DeliverAfter(s.cfg.flushAfter(), sess, &fecFlushTick{block: s.block})
}

// closeBlock computes and transmits the parity shards, then opens the next
// block.
func (s *fecSession) closeBlock(ch *appia.Channel) {
	kUsed := len(s.pending)
	if kUsed == 0 {
		return
	}
	if s.flushTimer != nil {
		s.flushTimer()
		s.flushTimer = nil
	}
	padded, shardLen := padShards(s.pending)
	codec, err := NewCodec(kUsed, s.cfg.m())
	if err == nil {
		parity, perr := codec.Encode(padded)
		if perr == nil {
			sess := appia.Session(s)
			for i, p := range parity {
				sh := &Shard{}
				sh.Class = appia.ClassControl // parity is overhead, not payload
				sh.Msg = appia.NewMessage(p)
				pushShardHeader(sh.Msg, s.cfg.Self, s.block, i, kUsed, true)
				_ = ch.SendFrom(sess, sh, appia.Down)
			}
		}
	}
	_ = shardLen
	s.block++
	s.pending = nil
}

// receiveShard assembles and, when possible, reconstructs.
func (s *fecSession) receiveShard(ch *appia.Channel, e *Shard) {
	m := e.EnsureMsg()
	origin, block, idx, kUsed, isParity, err := popShardHeader(m)
	if err != nil {
		return
	}
	byOrigin, ok := s.blocks[origin]
	if !ok {
		byOrigin = make(map[uint64]*rxBlock)
		s.blocks[origin] = byOrigin
	}
	b, ok := byOrigin[block]
	if !ok {
		b = &rxBlock{
			data:      make(map[int][]byte),
			parity:    make(map[int][]byte),
			delivered: make(map[int]bool),
		}
		byOrigin[block] = b
		// Bounded memory: forget blocks older than a window.
		if block >= 64 {
			delete(byOrigin, block-64)
		}
	}
	payload := append([]byte(nil), m.Bytes()...)
	if isParity {
		b.kUsed = kUsed
		b.shardLen = len(payload)
		if _, dup := b.parity[idx]; !dup {
			b.parity[idx] = payload
		}
	} else {
		if _, dup := b.data[idx]; dup {
			return
		}
		b.data[idx] = payload
		// Systematic: deliver data shards immediately.
		if !b.delivered[idx] {
			b.delivered[idx] = true
			s.deliverPayload(ch, payload)
		}
	}
	s.tryReconstruct(ch, b)
}

// tryReconstruct recovers missing data shards once k survivors exist.
func (s *fecSession) tryReconstruct(ch *appia.Channel, b *rxBlock) {
	if b.done || b.kUsed == 0 {
		return // no parity seen yet: cannot know the block geometry
	}
	missing := 0
	for i := 0; i < b.kUsed; i++ {
		if _, ok := b.data[i]; !ok {
			missing++
		}
	}
	if missing == 0 {
		b.done = true
		return
	}
	if len(b.data)+len(b.parity) < b.kUsed {
		return
	}
	codec, err := NewCodec(b.kUsed, s.cfg.m())
	if err != nil {
		return
	}
	shards := make([][]byte, b.kUsed+s.cfg.m())
	for i, d := range b.data {
		if i < b.kUsed {
			shards[i] = padTo(d, b.shardLen)
		}
	}
	for i, p := range b.parity {
		if b.kUsed+i < len(shards) {
			shards[b.kUsed+i] = p
		}
	}
	out, err := codec.Reconstruct(shards)
	if err != nil {
		return
	}
	b.done = true
	for i := 0; i < b.kUsed; i++ {
		if b.delivered[i] {
			continue
		}
		b.delivered[i] = true
		s.deliverPayload(ch, unpad(out[i]))
	}
}

// deliverPayload decodes a serialized cast and forwards it upward.
func (s *fecSession) deliverPayload(ch *appia.Channel, payload []byte) {
	ev, err := decodeCast(payload)
	if err != nil {
		return
	}
	sess := appia.Session(s)
	_ = ch.SendFrom(sess, ev, appia.Up)
}

// encodeCast frames an event as kind + message bytes, with a leading true
// length so padding strips cleanly.
func encodeCast(c group.Caster) ([]byte, error) {
	kind, err := appia.DefaultRegistry().KindOf(c)
	if err != nil {
		return nil, err
	}
	cb := c.CastBase()
	m := cb.EnsureMsg()
	m.PushString(kind)
	wire := append([]byte(nil), m.Bytes()...)
	if _, err := m.PopString(); err != nil {
		return nil, err
	}
	// Frame as uvarint(total) + wire so zero-padding strips cleanly.
	fm := appia.NewMessage(wire)
	fm.PushUvarint(uint64(len(wire)))
	return append([]byte(nil), fm.Bytes()...), nil
}

// decodeCast reverses encodeCast, ignoring padding beyond the true length.
func decodeCast(payload []byte) (appia.Sendable, error) {
	m := appia.FromWire(payload)
	total, err := m.PopUvarint()
	if err != nil {
		return nil, err
	}
	body := m.Bytes()
	if uint64(len(body)) > total {
		body = body[:total]
	}
	bm := appia.FromWire(body)
	kind, err := bm.PopString()
	if err != nil {
		return nil, err
	}
	ev, err := appia.DefaultRegistry().New(kind)
	if err != nil {
		return nil, err
	}
	ev.SendableBase().Msg = bm
	return ev, nil
}

// padShards pads byte slices to a common length.
func padShards(in [][]byte) ([][]byte, int) {
	max := 0
	for _, s := range in {
		if len(s) > max {
			max = len(s)
		}
	}
	out := make([][]byte, len(in))
	for i, s := range in {
		out[i] = padTo(s, max)
	}
	return out, max
}

// padTo zero-pads a copy of s to length n.
func padTo(s []byte, n int) []byte {
	if len(s) >= n {
		return s
	}
	cp := make([]byte, n)
	copy(cp, s)
	return cp
}

// unpad is a no-op: the true length prefix inside the payload handles it.
func unpad(s []byte) []byte { return s }

// pushShardHeader frames a shard: [origin][block][idx][kUsed][parity].
func pushShardHeader(m *appia.Message, origin appia.NodeID, block uint64, idx, kUsed int, parity bool) {
	m.PushBool(parity)
	m.PushUvarint(uint64(kUsed))
	m.PushUvarint(uint64(idx))
	m.PushUvarint(block)
	m.PushUvarint(uint64(uint32(origin)))
}

// popShardHeader removes the frame.
func popShardHeader(m *appia.Message) (origin appia.NodeID, block uint64, idx, kUsed int, parity bool, err error) {
	o, err := m.PopUvarint()
	if err != nil {
		return 0, 0, 0, 0, false, err
	}
	b, err := m.PopUvarint()
	if err != nil {
		return 0, 0, 0, 0, false, err
	}
	i, err := m.PopUvarint()
	if err != nil {
		return 0, 0, 0, 0, false, err
	}
	k, err := m.PopUvarint()
	if err != nil {
		return 0, 0, 0, 0, false, err
	}
	p, err := m.PopBool()
	if err != nil {
		return 0, 0, 0, 0, false, err
	}
	return appia.NodeID(uint32(o)), b, int(i), int(k), p, nil
}
