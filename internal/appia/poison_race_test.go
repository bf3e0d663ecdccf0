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

// TestReleasedEventPanics pins the same net for events: a released event is
// marked and never handed out again, and Insert, Forward, SendFrom, a routing
// hop or a second release of it panics.
func TestReleasedEventPanics(t *testing.T) {
	q, err := NewQoS("q", newRecLayer("l", T[*baseEv]()))
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler()
	defer sched.Close()
	ch := q.CreateChannel("c", sched)
	sess := ch.SessionFor("l")

	k := KindFor[baseEv]()
	ev := k.New()
	m := NewMessage([]byte("gone"))
	ev.SendableBase().Msg = m
	ReleaseEvent(ev)
	mustPanic(t, "its message", func() { m.Len() })
	mustPanic(t, "Insert", func() { _ = ch.Insert(ev, Up) })
	mustPanic(t, "Forward", func() { ch.Forward(ev) })
	mustPanic(t, "SendFrom", func() { _ = ch.SendFrom(sess, ev, Down) })
	mustPanic(t, "step", func() { ch.step(ev) })
	mustPanic(t, "second ReleaseEvent", func() { ReleaseEvent(ev) })
	if k.New() == ev {
		t.Fatal("a released event was handed out again")
	}

	lit := &baseEv{} // a literal takes the same path once released
	ReleaseEvent(lit)
	mustPanic(t, "Insert of a released literal", func() { _ = ch.Insert(lit, Up) })
}
