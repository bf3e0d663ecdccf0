package fix

import (
	"time"

	"fix/appia"
	"fix/clock"
	"fix/group"
)

// The delivery-side contract, one level above netio.Handler: an OnMessage
// payload and every slice obtained from an appia.Message alias a pooled
// buffer the stack releases when the callback returns, and the event an
// OnCast/OnDeliver callback receives goes back to its pool then.
type config struct {
	OnMessage func(from uint32, payload []byte)
	OnCast    func(ev *group.CastEvent)
	OnDeliver func(ev *group.CastEvent)
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
		OnDeliver: func(ev *group.CastEvent) {
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
func payloadOf(ev *group.CastEvent) []byte { return ev.Msg.Bytes() }

// The clean shapes.
func (b *inbox) onMessageClean(from uint32, payload []byte) {
	b.text = string(payload)
	b.last = append([]byte(nil), payload...)
	b.use(payload)
}

func (b *inbox) onDeliverClean(ev *group.CastEvent) {
	p := ev.Msg.Bytes()
	b.text = string(p)
	b.last = append([]byte(nil), p...)
	p = append([]byte(nil), p...) // cloning clears the taint
	b.all = append(b.all, p)
	_ = ev.Msg.Len()
}

func (b *inbox) use(p []byte) {}

// Delivered events: the callback's *CastEvent is borrowed like its bytes.
type recorder struct {
	clk    clock.Clock
	last   *group.CastEvent
	all    []*group.CastEvent
	byTag  map[string]*group.CastEvent
	ch     chan *group.CastEvent
	msg    *appia.Message
	origin uint32
	text   string
}

var lastCast *group.CastEvent

func (r *recorder) configs() []config {
	var kept []*group.CastEvent
	c := config{
		OnCast: func(ev *group.CastEvent) {
			r.last = ev             // want `delivered event stored in field "last"`
			kept = append(kept, ev) // want `delivered event stored in "kept"`
			lastCast = ev           // want `delivered event stored in "lastCast"`
			r.byTag[ev.Group] = ev  // want `delivered event stored into a map/slice element`
			r.msg = ev.Msg          // want `delivered event stored in field "msg"`
		},
	}
	c.OnDeliver = r.onDeliver
	return []config{c, {OnCast: r.onCastClean}}
}

func (r *recorder) onDeliver(ev *group.CastEvent) {
	r.all = append(r.all, ev)                  // want `delivered event stored in field "all"`
	r.ch <- ev                                 // want `delivered event sent on a channel`
	go r.use(ev)                               // want `delivered event captured by a spawned goroutine`
	r.clk.AfterFunc(time.Millisecond, func() { // want `delivered event captured by a AfterFunc callback`
		r.use(ev)
	})
}

// The clean shapes: copy what is needed, use the event synchronously.
func (r *recorder) onCastClean(ev *group.CastEvent) {
	r.origin = ev.Origin
	r.text = ev.Group + string(ev.Msg.Bytes())
	local := ev // a local alias is fine until it escapes
	r.use(local)
}

func (r *recorder) use(ev *group.CastEvent) {}
