package udpnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"morpheus/internal/clock"
	"morpheus/internal/netio"
)

// wireDest identifies one coalescing destination: a send socket and the
// remote address the datagram goes to. The address pointers come from the
// network's resolved directory (or the endpoint's group table), so they
// are stable and usable as map keys.
type wireDest struct {
	conn *net.UDPConn
	addr *net.UDPAddr
}

// dgram is one wire datagram being packed (open) or awaiting transmission
// (sealed). The backing buffer is pooled; frames counts the entries so the
// container header's count field can be patched at seal time.
type dgram struct {
	dest   wireDest
	bp     *[]byte
	frames int
}

// dgramPool recycles dgram headers so the batched send path stays
// allocation-free.
var dgramPool = sync.Pool{New: func() any { return new(dgram) }}

// coalescer packs frames bound for the same destination into container
// datagrams under an MTU budget. Sealed datagrams queue in FIFO order and
// are drained by exactly one goroutine at a time (the sender that sealed
// them, the flush timer, or a Flush caller), which both preserves
// per-destination ordering and amortizes the vectored send syscalls:
// while one drainer is in the kernel, concurrent senders keep packing, and
// their datagrams leave in the drainer's next sweep.
//
// Flush policy, in priority order:
//   - size: an entry that would overflow the open datagram seals it;
//   - delay: the first frame into an idle coalescer arms a clock timer
//     (the delay bound on added latency) that seals everything open;
//   - explicit: Flush seals everything open and waits for the wire.
type coalescer struct {
	ep    *Endpoint
	mtu   int
	delay time.Duration
	clk   clock.Clock

	mu       sync.Mutex
	cond     sync.Cond
	open     map[wireDest]*dgram
	order    []wireDest // seal order for sealAllLocked; may hold stale entries
	ready    []*dgram   // sealed, FIFO
	spare    []*dgram   // recycled backing array for ready
	timer    clock.Timer
	armed    bool
	draining bool
	closed   bool
}

func newCoalescer(ep *Endpoint, mtu int, delay time.Duration, clk clock.Clock) *coalescer {
	c := &coalescer{
		ep:    ep,
		mtu:   mtu,
		delay: delay,
		clk:   clk,
		open:  make(map[wireDest]*dgram),
	}
	c.cond.L = &c.mu
	return c
}

// enqueue coalesces one frame toward dest. The frame is accounted as
// transmitted here — once enqueued it will reach the wire (flush on size,
// timer, Flush, or Close), and a nil return means handed to the substrate,
// not acknowledged. A frame no datagram can carry is rejected before any
// accounting or sealing.
func (c *coalescer) enqueue(dest wireDest, port, class string, payload []byte) error {
	body := frameBodyLen(port, class, payload)
	entry := uvarintLen(uint64(body)) + body
	alone := containerHdrLen + entry // the datagram this frame fills by itself
	if alone > maxFrame {
		return fmt.Errorf("udpnet: frame of %d bytes exceeds %d: %w", alone, maxFrame, netio.ErrFrameTooLarge)
	}
	// Seal at once when there is no delay budget, or (the oversize bypass)
	// when the MTU budget cannot hold the frame: it then travels alone in a
	// one-entry container, through the same sealed FIFO as everything else
	// and behind a seal of its destination's open datagram, so
	// per-destination order survives the detour.
	sealNow := c.delay <= 0 || alone > c.mtu

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("udpnet: endpoint %d %w", c.ep.id, netio.ErrClosed)
	}
	c.ep.counters.AddTx(class, len(payload))
	drain := false
	d := c.open[dest]
	if d != nil && len(*d.bp)+entry > c.mtu {
		c.sealLocked(dest)
		d = nil
		drain = true
	}
	if d == nil {
		d = dgramPool.Get().(*dgram)
		bp := framePool.Get().(*[]byte)
		b := (*bp)[:0]
		b = append(b, frameMagic, containerVersion)
		b = binary.BigEndian.AppendUint32(b, uint32(c.ep.id))
		b = append(b, 0, 0) // count, patched at seal
		*bp = b
		d.dest, d.bp, d.frames = dest, bp, 0
		c.open[dest] = d
		if !sealNow {
			c.order = append(c.order, dest)
			if !c.armed {
				c.armed = true
				if c.timer == nil {
					c.timer = c.clk.AfterFunc(c.delay, c.flushTimer)
				} else {
					c.timer.Reset(c.delay)
				}
			}
		}
	}
	b := *d.bp
	b = binary.AppendUvarint(b, uint64(body))
	b = appendFrameBody(b, port, class, payload)
	*d.bp = b
	d.frames++
	if sealNow {
		// Packing still happens when concurrent senders queue behind an
		// active drainer.
		c.sealLocked(dest)
		drain = true
	}
	if len(c.ready) > 0 {
		drain = drain || !c.draining
	}
	c.mu.Unlock()
	if drain {
		c.drain(false)
	}
	return nil
}

// sealLocked moves dest's open datagram (if any) to the ready FIFO,
// patching the container frame count.
func (c *coalescer) sealLocked(dest wireDest) {
	d := c.open[dest]
	if d == nil {
		return
	}
	delete(c.open, dest)
	binary.BigEndian.PutUint16((*d.bp)[6:8], uint16(d.frames))
	c.ready = append(c.ready, d)
}

// sealAllLocked seals every open datagram in arrival order and disarms
// the flush timer.
func (c *coalescer) sealAllLocked() {
	if c.armed {
		c.armed = false
		c.timer.Stop()
	}
	for _, dest := range c.order {
		c.sealLocked(dest) // no-op for stale entries already sealed by size
	}
	c.order = c.order[:0]
}

// flushTimer is the delay-bound flush: whatever packed while the timer
// ran goes to the wire now.
func (c *coalescer) flushTimer() {
	c.mu.Lock()
	c.armed = false
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.sealAllLocked()
	c.mu.Unlock()
	c.drain(true)
}

// Flush seals everything open and does not return until every datagram
// sealed so far has been handed to the kernel.
func (c *coalescer) Flush() {
	c.mu.Lock()
	c.sealAllLocked()
	c.mu.Unlock()
	c.drain(true)
}

// close seals and drains outstanding datagrams, then refuses further
// frames. Called by Endpoint.Close before the sockets shut.
func (c *coalescer) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.sealAllLocked()
	c.mu.Unlock()
	c.drain(true)
}

// drain transmits sealed datagrams. At most one goroutine drains at a
// time; if another drainer is active, drain returns immediately unless
// wait is set, in which case it blocks until the FIFO is empty and no
// drainer is running (the Flush/Close/timer contract).
func (c *coalescer) drain(wait bool) {
	c.mu.Lock()
	for {
		if len(c.ready) == 0 && !c.draining {
			break
		}
		if c.draining {
			if !wait {
				break
			}
			c.cond.Wait()
			continue
		}
		c.draining = true
		batch := c.ready
		c.ready = c.spare
		c.spare = nil
		c.mu.Unlock()

		c.ep.sendBatch(batch)
		for i, d := range batch {
			framePool.Put(d.bp)
			d.bp = nil
			d.dest = wireDest{}
			dgramPool.Put(d)
			batch[i] = nil
		}

		c.mu.Lock()
		c.draining = false
		c.spare = batch[:0]
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}
