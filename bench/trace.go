package main

import (
	"encoding/binary"
	"sync/atomic"

	"morpheus/internal/netio"
)

// tracer records, from outside the stack, the three boundary spans of a
// cast's life toward each receiver. The stack under test is unmodified: the
// tracer wraps each member's netio.Endpoint (below the stack) and the bench
// wraps Group.Send and OnMessage (above it), and the cast id carried in the
// payload joins the four instants:
//
//	send      Group.Send entered at the sender             (bench, above)
//	down      the cast's first data frame toward receiver r
//	          handed to the substrate                       (endpoint, below)
//	rx        that frame handed to r's port handler         (endpoint, below)
//	deliver   OnMessage at r                                (bench, above)
//
// stack.down = down−send, netio.wire = rx−down, stack.up = deliver−rx; the
// three sum to the cast's delivery latency by construction. A retransmitted
// cast keeps its first down and first rx, so repair time lands in the span
// where the cast actually waited.
//
// Instants are stored as ns offsets from the cast's send instant (0 = not
// seen), indexed [cast−base][member].
type tracer struct {
	tb      timebase
	size    int // payload bytes: the cast is the last size bytes of a frame
	members int
	base    uint64
	on      bool         // set between phases, while no cast is in flight
	retx    atomic.Int64 // casts retransmitted during the traced phase

	send    []int64  // [slot] send instant on the cluster clock
	down    []uint32 // [slot*members+dst]
	rx      []uint32 // [slot*members+dst]
	deliver []uint32 // [slot*members+dst]
}

func newTracer(size, members, slots int) *tracer {
	return &tracer{
		size: size, members: members,
		send:    make([]int64, slots),
		down:    make([]uint32, slots*members),
		rx:      make([]uint32, slots*members),
		deliver: make([]uint32, slots*members),
	}
}

// begin opens a traced phase whose first cast is base.
func (t *tracer) begin(base uint64) {
	t.base = base
	t.retx.Store(0)
	clear(t.send)
	clear(t.down)
	clear(t.rx)
	clear(t.deliver)
}

func (t *tracer) slot(seq uint64) (int, bool) {
	s := seq - t.base
	return int(s), seq >= t.base && s < uint64(len(t.send))
}

func (t *tracer) sent(seq uint64, now int64) {
	if s, ok := t.slot(seq); ok {
		t.send[s] = now
	}
}

func (t *tracer) delivered(seq uint64, member int, lat int64) {
	if s, ok := t.slot(seq); ok {
		t.deliver[s*t.members+member] = max(1, sat32(lat))
	}
}

// castIn finds the traced cast a wire frame carries: the application
// payload is the tail of the frame, under the stack's headers.
func (t *tracer) castIn(frame []byte) (slot int, ok bool) {
	if len(frame) < t.size {
		return 0, false
	}
	p := frame[len(frame)-t.size:]
	if binary.LittleEndian.Uint32(p[16:]) != magic {
		return 0, false
	}
	return t.slot(binary.LittleEndian.Uint64(p))
}

// mark stamps arr[cast][member] with now−send, first writer wins.
func (t *tracer) mark(arr []uint32, frame []byte, member int) {
	if s, ok := t.castIn(frame); ok {
		off := max(1, sat32(t.tb.now()-t.send[s]))
		atomic.CompareAndSwapUint32(&arr[s*t.members+member], 0, off)
	}
}

// outbound traces one frame leaving toward member dst: a data frame marks
// the cast's way down; a cast travelling as control is a retransmission
// (group.nak answers nacks under the control class).
func (t *tracer) outbound(class string, frame []byte, dst int) {
	if !t.on {
		return
	}
	if class == "data" {
		t.mark(t.down, frame, dst)
	} else if _, ok := t.castIn(frame); ok {
		t.retx.Add(1)
	}
}

// wrap returns ep with its send and receive boundaries traced.
func (t *tracer) wrap(ep netio.Endpoint, member int) netio.Endpoint {
	return &tracedEndpoint{Endpoint: ep, t: t, member: member}
}

type tracedEndpoint struct {
	netio.Endpoint
	t      *tracer
	member int
}

func (e *tracedEndpoint) Send(dst netio.NodeID, port, class string, payload []byte) error {
	e.t.outbound(class, payload, int(dst)-1)
	return e.Endpoint.Send(dst, port, class, payload)
}

func (e *tracedEndpoint) Multicast(segment, port, class string, payload []byte) error {
	for m := 0; m < e.t.members; m++ {
		if m != e.member {
			e.t.outbound(class, payload, m)
		}
	}
	return e.Endpoint.Multicast(segment, port, class, payload)
}

func (e *tracedEndpoint) Handle(port string, h netio.Handler) {
	if h == nil {
		e.Endpoint.Handle(port, nil)
		return
	}
	e.Endpoint.Handle(port, func(src netio.NodeID, port string, payload []byte) {
		if e.t.on {
			e.t.mark(e.t.rx, payload, e.member)
		}
		h(src, port, payload)
	})
}

// spans are the per-(cast, receiver) boundary spans of a traced phase, in ns.
type spans struct {
	down, wire, up     []uint32
	covered, delivered int // pairs with all four instants / pairs delivered
}

func (t *tracer) spans() spans {
	var s spans
	for i, d := range t.deliver {
		if d == 0 {
			continue
		}
		s.delivered++
		dn, rx := t.down[i], t.rx[i]
		if dn == 0 || rx < dn || d < rx {
			continue
		}
		s.covered++
		s.down = append(s.down, dn)
		s.wire = append(s.wire, rx-dn)
		s.up = append(s.up, d-rx)
	}
	return s
}

// column returns one member's delivery latencies of the traced phase in
// cast order.
func (t *tracer) column(member int) []uint32 {
	var col []uint32
	for i := member; i < len(t.deliver); i += t.members {
		if d := t.deliver[i]; d != 0 {
			col = append(col, d)
		}
	}
	return col
}
