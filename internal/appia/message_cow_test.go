package appia

import (
	"bytes"
	"testing"
)

// TestMessageCloneCopyOnWrite is the fan-out correctness property: a clone
// popped after the original pushes must still read the original bytes, and
// vice versa — the shared buffer is copied out before any mutation.
func TestMessageCloneCopyOnWrite(t *testing.T) {
	payload := []byte("payload-bytes")
	m := NewMessage(payload)
	m.PushString("seq=7")

	c := m.Clone()

	// The original mutates after the clone was taken.
	m.PushString("outer-header")
	m.PushUint32(0xdeadbeef)

	// The clone must be unaffected.
	if got, err := c.PopString(); err != nil || got != "seq=7" {
		t.Fatalf("clone header = %q, %v; want %q", got, err, "seq=7")
	}
	if !bytes.Equal(c.Bytes(), payload) {
		t.Fatalf("clone payload = %q, want %q", c.Bytes(), payload)
	}

	// And the original must still carry everything it pushed.
	if v, err := m.PopUint32(); err != nil || v != 0xdeadbeef {
		t.Fatalf("original uint32 = %x, %v", v, err)
	}
	for _, want := range []string{"outer-header", "seq=7"} {
		if got, err := m.PopString(); err != nil || got != want {
			t.Fatalf("original header = %q, %v; want %q", got, err, want)
		}
	}
	if !bytes.Equal(m.Bytes(), payload) {
		t.Fatalf("original payload = %q, want %q", m.Bytes(), payload)
	}
	c.Release()
	m.Release()
}

// TestMessageClonePushDoesNotCorruptSibling drives the other direction: the
// clone pushes first, while the original keeps reading the shared buffer.
func TestMessageClonePushDoesNotCorruptSibling(t *testing.T) {
	m := NewMessage([]byte("shared"))
	m.PushUvarint(99)
	c := m.Clone()
	c.PushString("clone-only")

	if v, err := m.PopUvarint(); err != nil || v != 99 {
		t.Fatalf("original uvarint = %d, %v; want 99", v, err)
	}
	if !bytes.Equal(m.Bytes(), []byte("shared")) {
		t.Fatalf("original payload = %q", m.Bytes())
	}
	if got, err := c.PopString(); err != nil || got != "clone-only" {
		t.Fatalf("clone header = %q, %v", got, err)
	}
	if v, err := c.PopUvarint(); err != nil || v != 99 {
		t.Fatalf("clone uvarint = %d, %v; want 99", v, err)
	}
	c.Release()
	m.Release()
}

// TestMessageCloneZeroAlloc asserts the read-only fan-out path never
// allocates: cloning shares the buffer and releasing recycles the struct.
func TestMessageCloneZeroAlloc(t *testing.T) {
	skipIfPoisoning(t)
	m := NewMessage(make([]byte, 512))
	m.PushString("hdr")
	defer m.Release()
	// Warm the pools.
	for i := 0; i < 8; i++ {
		m.Clone().Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		c := m.Clone()
		if c.Len() != m.Len() {
			t.Fatal("length mismatch")
		}
		c.Release()
	})
	if allocs != 0 {
		t.Fatalf("read-only Clone allocates %.1f times per op, want 0", allocs)
	}
}

// TestMessagePushPopZeroAlloc asserts a steady-state header round trip on an
// exclusively-owned message never allocates once the buffer exists.
func TestMessagePushPopZeroAlloc(t *testing.T) {
	m := NewMessage(make([]byte, 256))
	defer m.Release()
	hdr := []byte("retransmit-header")
	allocs := testing.AllocsPerRun(200, func() {
		m.PushUvarint(7)
		m.PushBytes(hdr)
		if _, err := m.PopBytes(); err != nil {
			t.Fatal(err)
		}
		if v, err := m.PopUvarint(); err != nil || v != 7 {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("push/pop round trip allocates %.1f times per op, want 0", allocs)
	}
}

// TestMessageLifecycleZeroAlloc asserts the full create/use/release cycle is
// allocation-free once the pools are warm — the per-frame path of the
// transport layer.
func TestMessageLifecycleZeroAlloc(t *testing.T) {
	skipIfPoisoning(t)
	payload := make([]byte, 128)
	// Warm the pools.
	for i := 0; i < 8; i++ {
		NewMessage(payload).Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		m := NewMessage(payload)
		m.PushUvarint(42)
		if _, err := m.PopUvarint(); err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if allocs != 0 {
		t.Fatalf("message lifecycle allocates %.1f times per op, want 0", allocs)
	}
}

// TestMessageReleaseLastOwnerKeepsData ensures releasing one sibling does
// not disturb the survivor sharing the buffer.
func TestMessageReleaseLastOwnerKeepsData(t *testing.T) {
	m := NewMessage([]byte("keepme"))
	c := m.Clone()
	m.Release()
	if !bytes.Equal(c.Bytes(), []byte("keepme")) {
		t.Fatalf("survivor reads %q after sibling release", c.Bytes())
	}
	c.Release()
}

// skipIfPoisoning skips the tests that count on Release recycling the struct:
// the race build retires it for good (poison_race.go). In the normal build
// the same tests double as the proof that the poison hooks cost nothing.
func skipIfPoisoning(t *testing.T) {
	if poisoning {
		t.Skip("race build: released Message structs are never reused")
	}
}

// TestMessageLastOwnerRecycles walks clone/push/release interleavings and
// checks the buffer's reference count at each step: every owner holds exactly
// one reference, a push on a shared buffer moves the pusher to a buffer of
// its own, and only the last Release hands the buffer back.
func TestMessageLastOwnerRecycles(t *testing.T) {
	m := NewMessage([]byte("payload"))
	m.PushUvarint(7)
	shared := m.sb
	a, b := m.Clone(), m.Clone()
	if got := shared.refs.Load(); got != 3 {
		t.Fatalf("refs after two clones = %d, want 3", got)
	}

	// Copy-out: b leaves the shared buffer, the siblings keep theirs intact.
	b.PushString("b-only")
	if b.sb == shared {
		t.Fatal("push on a shared buffer did not copy out")
	}
	if got := shared.refs.Load(); got != 2 {
		t.Fatalf("refs after copy-out = %d, want 2", got)
	}
	if got := b.sb.refs.Load(); got != 1 {
		t.Fatalf("copied-out buffer refs = %d, want 1", got)
	}
	if v, err := a.PopUvarint(); err != nil || v != 7 || !bytes.Equal(a.Bytes(), []byte("payload")) {
		t.Fatalf("sibling after copy-out: %d, %v, %q", v, err, a.Bytes())
	}

	// Releases in an order that leaves the original for last.
	b.Release()
	a.Release()
	if got := shared.refs.Load(); got != 1 {
		t.Fatalf("refs with one owner left = %d, want 1", got)
	}
	if v, err := m.PopUvarint(); err != nil || v != 7 || !bytes.Equal(m.Bytes(), []byte("payload")) {
		t.Fatalf("last owner reads %d, %v, %q", v, err, m.Bytes())
	}
	// The last owner pushes in place: nothing to copy out of any more.
	m.PushUvarint(8)
	if m.sb != shared {
		t.Fatal("sole owner copied out on push")
	}
	m.Release()
	if got := shared.refs.Load(); got != 0 {
		t.Fatalf("refs after the last release = %d, want 0", got)
	}
}

// TestMessageReleaseZeroMessage covers the message EnsureMsg makes for an
// event that never carried bytes: empty, cloneable, releasable.
func TestMessageReleaseZeroMessage(t *testing.T) {
	var ev SendableEvent
	m := ev.EnsureMsg()
	c := m.Clone()
	if m.Len() != 0 || c.Len() != 0 || m.Bytes() != nil {
		t.Fatalf("zero message not empty: %d %d %v", m.Len(), c.Len(), m.Bytes())
	}
	c.Release()
	m.Release()
	var none *Message
	none.Release() // an event whose Msg was never set
}

// TestMessageBufferSizeClasses pins what a message holds on to: the smallest
// power-of-two class that fits it, so that a ring of retained 200-byte frames
// costs 256 bytes a slot rather than a buffer sized for the largest frame;
// past maxPooledCap the allocation is exact and never pooled.
func TestMessageBufferSizeClasses(t *testing.T) {
	for _, c := range []struct{ n, class, capacity int }{
		{1, 0, minBufCap},
		{minBufCap, 0, minBufCap},
		{minBufCap + 1, 1, 2 * minBufCap},
		{8192 + headroom, 6, 16384},
		{maxPooledCap, len(bufPools) - 1, maxPooledCap},
	} {
		if got := bufClass(c.n); got != c.class {
			t.Errorf("bufClass(%d) = %d, want %d", c.n, got, c.class)
		}
		sb := getBuf(c.n)
		if len(sb.data) != c.n || cap(sb.data) != c.capacity {
			t.Errorf("getBuf(%d): len %d cap %d, want cap %d", c.n, len(sb.data), cap(sb.data), c.capacity)
		}
		unref(sb)
	}
	big := getBuf(maxPooledCap + 1)
	if cap(big.data) != maxPooledCap+1 {
		t.Errorf("oversize buffer cap = %d, want the exact %d", cap(big.data), maxPooledCap+1)
	}
	unref(big)

	m := NewMessage(make([]byte, 128))
	m.PushUvarint(1 << 40)
	m.PushUvarint(3)
	if got := cap(m.sb.data); got != minBufCap {
		t.Errorf("a 128-byte cast with its headers holds %d bytes, want %d", got, minBufCap)
	}
	m.Release()
}
