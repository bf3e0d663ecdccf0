//go:build race

package appia

import "sync"

// Under the race detector — a build `make race` already runs over the
// goldens, the chaos corpus and the fuzz seeds — a wrong Release is made
// loud instead of corrupting one cast in a million: the buffer is
// overwritten before it is pooled, so a stale alias reads poison, and the
// struct is marked and never reused, so any later method call panics.
// Released events get the same treatment: marked, never reused, and any
// later Insert, Forward, SendFrom, hop or second release panics.

// poisoning tells the allocation tests that retired structs are not recycled.
const poisoning = true

// released marks a retired Message in its off field (a live off is >= 0).
const released = -1

// releasedKind marks a retired event in its kind (a live kind is >= 0).
const releasedKind Kind = -1

func (m *Message) live() {
	if m.off == released {
		panic("appia: use of a released Message")
	}
}

// retire keeps the struct out of msgPool: the mark must outlive any reuse.
func retire(m *Message) { m.off = released }

func (b *EventBase) live() {
	if b.kind == releasedKind {
		panic("appia: use of a released event")
	}
}

// retireEvent keeps the event out of its pool: the mark must outlive any
// reuse.
func retireEvent(e Sendable, _ Kind, _ *sync.Pool) { e.base().kind = releasedKind }

func poison(p []byte) {
	for i := range p {
		p[i] = 0xDB
	}
}
