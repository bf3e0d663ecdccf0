//go:build race

package appia

// Under the race detector — a build `make race` already runs over the
// goldens, the chaos corpus and the fuzz seeds — a wrong Release is made
// loud instead of corrupting one cast in a million: the buffer is
// overwritten before it is pooled, so a stale alias reads poison, and the
// struct is marked and never reused, so any later method call panics.

// poisoning tells the allocation tests that retired structs are not recycled.
const poisoning = true

// released marks a retired Message in its off field (a live off is >= 0).
const released = -1

func (m *Message) live() {
	if m.off == released {
		panic("appia: use of a released Message")
	}
}

// retire keeps the struct out of msgPool: the mark must outlive any reuse.
func retire(m *Message) { m.off = released }

func poison(p []byte) {
	for i := range p {
		p[i] = 0xDB
	}
}
