//go:build race

package appia

import "testing"

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestReleasedMessagePanics pins the race build's use-after-release net:
// every entry point of a released Message panics, a second Release included.
func TestReleasedMessagePanics(t *testing.T) {
	m := NewMessage([]byte("gone"))
	m.Release()
	mustPanic(t, "Len", func() { m.Len() })
	mustPanic(t, "Bytes", func() { m.Bytes() })
	mustPanic(t, "Clone", func() { m.Clone() })
	mustPanic(t, "push", func() { m.PushUvarint(1) })
	mustPanic(t, "pop", func() { _, _ = m.PopUvarint() })
	mustPanic(t, "second Release", func() { m.Release() })
}

// TestReleasedBufferIsPoisoned: a slice kept past the last Release reads
// poison, not the old bytes (and not yet another message's).
func TestReleasedBufferIsPoisoned(t *testing.T) {
	m := NewMessage([]byte("payload"))
	c := m.Clone()
	stale := m.Bytes()
	m.Release()
	if string(stale) != "payload" {
		t.Fatalf("buffer poisoned while a clone still owns it: %q", stale)
	}
	c.Release()
	for i, b := range stale {
		if b != 0xDB {
			t.Fatalf("stale[%d] = %#x after the last release, want poison", i, b)
		}
	}
}
