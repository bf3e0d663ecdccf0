package appia

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Message is a byte buffer with a header stack, in the style of the Appia
// (and x-kernel) message abstraction. Layers push headers on the way down
// and pop them, in reverse order, on the way up. Pushes prepend, so the
// wire layout is exactly headers-outermost-first followed by the payload.
//
// Storage is a reference-counted buffer shared copy-on-write between a
// message and its clones: Clone is O(1), pops only advance the clone's own
// read offset, and the first push on a shared buffer copies it out.
//
// Ownership: an event's Msg belongs to whoever holds the event. The session
// (or channel) that consumes a Sendable — does not forward it — calls
// ReleaseEvent, whose Release recycles the struct and, once the last clone
// is gone, the buffer through internal sync.Pools; anything that keeps bytes
// past its Handle holds its own Clone (see Retained). The stack releases
// at the points DESIGN.md "Kernel data plane" lists. A missing Release is
// only a missed recycle — the GC reclaims the message; a wrong one hands a
// live buffer to an unrelated message, so release only where the event
// provably ends. Builds with the race detector poison released buffers and
// panic on any use of a released Message (poison_race.go).
//
// The zero value is an empty message ready for use.
type Message struct {
	sb  *msgBuf // backing store; nil means the message is empty
	off int     // start of the valid region in sb.data; pushes decrease off
}

// Message errors.
var (
	ErrMsgUnderflow = errors.New("appia: message pop underflows")
	ErrMsgCorrupt   = errors.New("appia: message header corrupt")
)

// headroom is the initial front slack reserved for header pushes.
const headroom = 64

// Pooled buffers come in power-of-two size classes, minBufCap to
// maxPooledCap, one pool per class: a retained 200-byte frame holds 256
// bytes, not a buffer sized for the largest frame that ever passed through,
// so a stack's footprint follows what it retains and is reached within the
// first moments of traffic. Larger buffers are left to the GC rather than
// pinned in a pool.
const (
	minBufShift  = 8
	maxBufShift  = 16
	minBufCap    = 1 << minBufShift
	maxPooledCap = 1 << maxBufShift
)

// msgBuf is a reference-counted backing store. refs counts the messages
// sharing data; the valid region of the last owner ends at len(data).
type msgBuf struct {
	data []byte
	refs atomic.Int32
}

// bufPools has no New: a miss allocates in getBuf, at the class asked for.
var (
	msgPool  = sync.Pool{New: func() any { return new(Message) }}
	bufPools [maxBufShift - minBufShift + 1]sync.Pool
)

// bufClass is the index of the smallest size class holding n bytes,
// n <= maxPooledCap.
func bufClass(n int) int {
	if n <= minBufCap {
		return 0
	}
	return bits.Len(uint(n-1)) - minBufShift
}

// getBuf returns an exclusively-owned buffer with len(data) == n.
func getBuf(n int) *msgBuf {
	var sb *msgBuf
	if n > maxPooledCap {
		sb = &msgBuf{data: make([]byte, n)}
	} else {
		c := bufClass(n)
		if sb, _ = bufPools[c].Get().(*msgBuf); sb == nil {
			sb = &msgBuf{data: make([]byte, n, minBufCap<<c)}
		}
		sb.data = sb.data[:n]
	}
	sb.refs.Store(1)
	return sb
}

// unref drops one reference and recycles the buffer when the last goes.
func unref(sb *msgBuf) {
	if sb.refs.Add(-1) != 0 {
		return
	}
	poison(sb.data[:cap(sb.data)])
	if cap(sb.data) > maxPooledCap {
		return
	}
	sb.data = sb.data[:0]
	bufPools[bufClass(cap(sb.data))].Put(sb)
}

// NewMessage returns a message whose payload is a copy of p.
func NewMessage(p []byte) *Message {
	m := msgPool.Get().(*Message)
	m.sb, m.off = nil, 0
	if len(p) > 0 {
		m.sb = getBuf(headroom + len(p))
		m.off = headroom
		copy(m.sb.data[m.off:], p)
	}
	return m
}

// FromWire builds a message directly from bytes received from the network.
// The slice is copied.
func FromWire(p []byte) *Message {
	return NewMessage(p)
}

// Len returns the current total length (headers plus payload).
func (m *Message) Len() int {
	m.live()
	if m.sb == nil {
		return 0
	}
	return len(m.sb.data) - m.off
}

// Bytes returns the wire representation of the message. The returned slice
// aliases the internal buffer; callers that retain it across further pushes
// (on this message or, after Clone, on the last sibling sharing the buffer)
// must copy it.
func (m *Message) Bytes() []byte {
	m.live()
	if m.sb == nil {
		return nil
	}
	return m.sb.data[m.off:]
}

// Clone returns a logically independent copy of the message in O(1): the
// backing buffer is shared and its reference count bumped. Later pops on
// either message are private, and the first push on either side copies the
// buffer out first, so clones never observe each other's mutations. Layers
// that fan one event out into several (for example, a point-to-point
// fan-out of a multicast) clone the message for each copy.
func (m *Message) Clone() *Message {
	m.live()
	c := msgPool.Get().(*Message)
	c.sb, c.off = m.sb, m.off
	if m.sb != nil {
		m.sb.refs.Add(1)
	}
	return c
}

// Release retires the message, recycling its struct — and, once the last
// clone sharing it is released, its buffer — through internal pools. The
// message must not be used after Release, and — unlike letting the GC
// reclaim it — any slice previously returned by Bytes, PopBytes or pop
// aliases a buffer that may now be handed to an unrelated message: callers
// must not Release while such aliases are still live. Releasing a nil
// message is a no-op.
func (m *Message) Release() {
	if m == nil {
		return
	}
	m.live()
	if sb := m.sb; sb != nil {
		m.sb = nil
		unref(sb)
	}
	m.off = 0
	retire(m)
}

// reserve guarantees the message exclusively owns its buffer with at least
// n bytes of front slack, copying out of a shared buffer if needed.
func (m *Message) reserve(n int) {
	m.live()
	if sb := m.sb; sb != nil && m.off >= n && sb.refs.Load() == 1 {
		return
	}
	front := n
	if front < headroom {
		front = headroom
	}
	old := m.sb
	ln := m.Len()
	nsb := getBuf(front + ln)
	if old != nil {
		copy(nsb.data[front:], old.data[m.off:])
		unref(old)
	}
	m.sb = nsb
	m.off = front
}

// push prepends raw bytes.
func (m *Message) push(p []byte) {
	m.reserve(len(p))
	m.off -= len(p)
	copy(m.sb.data[m.off:], p)
}

// pop removes and returns the first n raw bytes.
func (m *Message) pop(n int) ([]byte, error) {
	if m.Len() < n {
		return nil, ErrMsgUnderflow
	}
	if n == 0 {
		return nil, nil
	}
	p := m.sb.data[m.off : m.off+n]
	m.off += n
	return p, nil
}

// PushBytes prepends a length-prefixed byte segment.
func (m *Message) PushBytes(p []byte) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(p)))
	m.push(p)
	m.push(hdr[:n])
}

// PopBytes removes and returns the topmost length-prefixed byte segment.
// The returned slice aliases the internal buffer.
func (m *Message) PopBytes() ([]byte, error) {
	ln, err := m.PopUvarint()
	if err != nil {
		return nil, err
	}
	if ln > uint64(m.Len()) {
		return nil, fmt.Errorf("%w: segment length %d exceeds %d remaining", ErrMsgCorrupt, ln, m.Len())
	}
	return m.pop(int(ln))
}

// PushString prepends a string header.
func (m *Message) PushString(s string) { m.PushBytes([]byte(s)) }

// PopString removes and returns the topmost string header.
func (m *Message) PopString() (string, error) {
	b, err := m.PopBytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// PushUvarint prepends an unsigned varint header.
func (m *Message) PushUvarint(v uint64) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], v)
	m.push(hdr[:n])
}

// PopUvarint removes and returns the topmost unsigned varint header.
func (m *Message) PopUvarint() (uint64, error) {
	v, n := binary.Uvarint(m.Bytes())
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrMsgCorrupt)
	}
	m.off += n
	return v, nil
}

// PushVarint prepends a signed varint header.
func (m *Message) PushVarint(v int64) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutVarint(hdr[:], v)
	m.push(hdr[:n])
}

// PopVarint removes and returns the topmost signed varint header.
func (m *Message) PopVarint() (int64, error) {
	v, n := binary.Varint(m.Bytes())
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrMsgCorrupt)
	}
	m.off += n
	return v, nil
}

// PushUint32 prepends a fixed-width 32-bit header.
func (m *Message) PushUint32(v uint32) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], v)
	m.push(hdr[:])
}

// PopUint32 removes and returns the topmost fixed-width 32-bit header.
func (m *Message) PopUint32() (uint32, error) {
	p, err := m.pop(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(p), nil
}

// PushUint64 prepends a fixed-width 64-bit header.
func (m *Message) PushUint64(v uint64) {
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], v)
	m.push(hdr[:])
}

// PopUint64 removes and returns the topmost fixed-width 64-bit header.
func (m *Message) PopUint64() (uint64, error) {
	p, err := m.pop(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(p), nil
}

// PushBool prepends a boolean header.
func (m *Message) PushBool(v bool) {
	if v {
		m.push([]byte{1})
	} else {
		m.push([]byte{0})
	}
}

// PopBool removes and returns the topmost boolean header.
func (m *Message) PopBool() (bool, error) {
	p, err := m.pop(1)
	if err != nil {
		return false, err
	}
	return p[0] != 0, nil
}

// PushUvarintSlice prepends a counted slice of uvarints (count outermost).
func (m *Message) PushUvarintSlice(vs []uint64) {
	for i := len(vs) - 1; i >= 0; i-- {
		m.PushUvarint(vs[i])
	}
	m.PushUvarint(uint64(len(vs)))
}

// PopUvarintSlice removes and returns a counted slice of uvarints.
func (m *Message) PopUvarintSlice() ([]uint64, error) {
	n, err := m.PopUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(m.Len()) { // each uvarint takes at least one byte
		return nil, fmt.Errorf("%w: slice count %d exceeds remaining bytes", ErrMsgCorrupt, n)
	}
	vs := make([]uint64, n)
	for i := range vs {
		if vs[i], err = m.PopUvarint(); err != nil {
			return nil, err
		}
	}
	return vs, nil
}
