package fix

import (
	"time"

	"fix/appia"
	"fix/clock"
)

// The delivery-side contract, one level above netio.Handler: an OnMessage
// payload and every slice obtained from an appia.Message alias a pooled
// buffer the stack releases when the callback returns.
type config struct {
	OnMessage func(from uint32, payload []byte)
	OnDeliver func(ev *appia.CastEvent)
}

type inbox struct {
	clk    clock.Clock
	last   []byte
	body   []byte
	all    [][]byte
	ch     chan []byte
	text   string
	header []byte
}

func (b *inbox) configs() []config {
	c := config{
		OnMessage: func(from uint32, payload []byte) {
			b.last = payload // want `stored in field "last"`
		},
		OnDeliver: func(ev *appia.CastEvent) {
			b.last = ev.Msg.Bytes() // want `stored in field "last"`
		},
	}
	var late config
	late.OnMessage = b.onMessage
	return []config{c, late, {OnMessage: b.onMessageClean, OnDeliver: b.onDeliverClean}}
}

// Named callbacks: retention through a reslice, a channel, a timer.
func (b *inbox) onMessage(from uint32, payload []byte) {
	view := payload[2:]
	b.body = view                              // want `stored in field "body"`
	b.ch <- payload                            // want `sent on a channel`
	b.clk.AfterFunc(time.Millisecond, func() { // want `captured by a AfterFunc callback`
		b.use(payload)
	})
}

// Message slices are borrowed outside callbacks too: any function that keeps
// one past the message's release reads another message's bytes.
func (b *inbox) decode(m *appia.Message) error {
	hdr, err := m.PopBytes()
	if err != nil {
		return err
	}
	b.header = hdr             // want `stored in field "header"`
	b.all = append(b.all, hdr) // want `stored in field "all"`
	rest := m.Bytes()[1:]      // a local alias is fine until it escapes
	go b.use(rest)             // want `captured by a spawned goroutine`
	b.ch <- m.Bytes()          // want `sent on a channel`
	b.text = string(m.Bytes()) // string conversion copies
	b.use(m.Bytes())           // synchronous use is the contract
	return nil
}

// An accessor may return the slice: its caller is bound by the same rule.
func payloadOf(ev *appia.CastEvent) []byte { return ev.Msg.Bytes() }

// The clean shapes.
func (b *inbox) onMessageClean(from uint32, payload []byte) {
	b.text = string(payload)
	b.last = append([]byte(nil), payload...)
	b.use(payload)
}

func (b *inbox) onDeliverClean(ev *appia.CastEvent) {
	p := ev.Msg.Bytes()
	b.text = string(p)
	b.last = append([]byte(nil), p...)
	p = append([]byte(nil), p...) // cloning clears the taint
	b.all = append(b.all, p)
	_ = ev.Msg.Len()
}

func (b *inbox) use(p []byte) {}
