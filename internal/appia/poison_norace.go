//go:build !race

package appia

// The use-after-release checks of poison_race.go compile to nothing here.

const poisoning = false

func (m *Message) live() {}

func retire(m *Message) { msgPool.Put(m) }

func poison([]byte) {}
