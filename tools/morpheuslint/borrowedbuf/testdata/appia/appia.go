// Package appia is the fixture's stand-in for the kernel's message type:
// the analyzer matches (*Message).Bytes and PopBytes by package and type
// name.
package appia

// Message hands out slices of a pooled buffer: valid until the message's
// owner releases it.
type Message struct{ buf []byte }

func (m *Message) Bytes() []byte { return m.buf }

func (m *Message) PopBytes() ([]byte, error) { return m.buf, nil }

func (m *Message) Len() int { return len(m.buf) }
