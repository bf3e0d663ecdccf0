//go:build !race

package appia

import "sync"

// The use-after-release checks of poison_race.go compile to nothing here.

const poisoning = false

func (m *Message) live() {}

func retire(m *Message) { msgPool.Put(m) }

func (b *EventBase) live() {}

// retireEvent recycles a reset event through its kind's pool; a kind without
// one (never declared) leaves it to the GC.
func retireEvent(e Sendable, k Kind, pool *sync.Pool) {
	e.base().kind = k
	if pool != nil {
		pool.Put(e)
	}
}

func poison([]byte) {}
