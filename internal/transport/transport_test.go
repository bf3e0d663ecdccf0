package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/fec"
	"morpheus/internal/group"
	"morpheus/internal/vnet"
)

// pingEv is a registered wire event for tests.
type pingEv struct{ appia.SendableEvent }

func reg(t *testing.T) *appia.EventKindRegistry {
	t.Helper()
	r := appia.NewEventKindRegistry()
	appia.RegisterKind[pingEv](r, "test.ping")
	return r
}

func TestMarshalUnmarshalRoundtrip(t *testing.T) {
	r := reg(t)
	ev := &pingEv{}
	ev.Msg = appia.NewMessage([]byte("payload"))
	ev.Msg.PushUvarint(77)

	wire, err := Marshal(r, "chan-x", ev)
	if err != nil {
		t.Fatal(err)
	}
	// The original message must be restored after marshalling.
	if v, err := ev.Msg.PopUvarint(); err != nil || v != 77 {
		t.Fatalf("original message corrupted: %d, %v", v, err)
	}

	chName, out, err := Unmarshal(r, wire)
	if err != nil {
		t.Fatal(err)
	}
	if chName != "chan-x" {
		t.Fatalf("channel = %q", chName)
	}
	p, ok := out.(*pingEv)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	if v, err := p.Msg.PopUvarint(); err != nil || v != 77 {
		t.Fatalf("header = %d, %v", v, err)
	}
	if string(p.Msg.Bytes()) != "payload" {
		t.Fatalf("payload = %q", p.Msg.Bytes())
	}
}

// TestMarshalAppendWireFormat pins the frame layout against the encoding this
// layer used before it framed straight into the scratch buffer — push the
// kind and the channel name onto the message, copy it out — for every kind
// the stack registers, and checks that marshalling only reads the event: the
// message is untouched (even when its buffer is shared with a retention
// clone, the hot-path case), a nil one stays nil, and a second marshal gives
// the same bytes.
func TestMarshalAppendWireFormat(t *testing.T) {
	r := reg(t)
	group.RegisterWireEvents(r)
	fec.RegisterWireEvents(r)
	const channel = "alpha/data"
	prefix := []byte("scratch-prefix")
	for _, kind := range r.Kinds() {
		for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("0123456789"), 30)} {
			ev, err := r.New(kind)
			if err != nil {
				t.Fatal(err)
			}
			sb := ev.SendableBase()
			var body []byte
			var sibling *appia.Message // shares the buffer throughout
			if payload != nil {
				sb.Msg = appia.NewMessage(payload)
				sb.Msg.PushUvarint(1 << 40)
				sb.Msg.PushBool(true)
				body = append([]byte(nil), sb.Msg.Bytes()...)
				sibling = sb.Msg.Clone()
			}
			ref := appia.NewMessage(body)
			ref.PushString(kind)
			ref.PushString(channel)
			want := append(append([]byte(nil), prefix...), ref.Bytes()...)

			for pass := 0; pass < 2; pass++ {
				got, err := MarshalAppend(append([]byte(nil), prefix...), r, channel, ev)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s, %d-byte payload, pass %d:\n got %q\nwant %q", kind, len(payload), pass, got, want)
				}
				if payload == nil && sb.Msg != nil {
					t.Fatalf("%s: marshalling gave a message to an event that had none", kind)
				}
				if payload != nil && !bytes.Equal(sb.Msg.Bytes(), body) {
					t.Fatalf("%s: marshalling changed the message to %q", kind, sb.Msg.Bytes())
				}
			}

			name, back, err := Unmarshal(r, want[len(prefix):])
			if err != nil || name != channel || reflect.TypeOf(back) != reflect.TypeOf(ev) {
				t.Fatalf("%s: decoded %q, %T, %v", kind, name, back, err)
			}
			if got := back.SendableBase().Msg.Bytes(); !bytes.Equal(got, body) {
				t.Fatalf("%s: decoded message %q, want %q", kind, got, body)
			}
			sibling.Release()
		}
	}
}

func TestMarshalUnregistered(t *testing.T) {
	r := appia.NewEventKindRegistry()
	ev := &pingEv{}
	if _, err := Marshal(r, "c", ev); err == nil {
		t.Fatal("marshal of unregistered type succeeded")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	r := reg(t)
	if _, _, err := Unmarshal(r, []byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage decoded")
	}
}

// delivery is what a test keeps of a delivered event, which the channel
// releases once the upcall returns.
type delivery struct {
	typ     string
	source  appia.NodeID
	payload string
}

// buildPair wires two single-layer (ptp only) channels over a vnet LAN.
func buildPair(t *testing.T) (a, b *appia.Channel, deliveredB *[]delivery, mu *sync.Mutex) {
	t.Helper()
	r := reg(t)
	w := vnet.NewWorld(2)
	t.Cleanup(func() { _ = w.Close() })
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})
	na, err := w.AddNode(1, vnet.Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := w.AddNode(2, vnet.Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}

	mu = &sync.Mutex{}
	deliveredB = &[]delivery{}

	mkChan := func(n *vnet.Node, sink bool) *appia.Channel {
		q, err := appia.NewQoS("q", NewPTPLayer(Config{Node: n, Port: "t", Registry: r, Logf: t.Logf}))
		if err != nil {
			t.Fatal(err)
		}
		sched := appia.NewScheduler()
		t.Cleanup(sched.Close)
		var opts []appia.ChannelOption
		if sink {
			opts = append(opts, appia.WithDeliver(func(ev appia.Event) {
				mu.Lock()
				defer mu.Unlock()
				d := delivery{typ: fmt.Sprintf("%T", ev)}
				if s, ok := ev.(appia.Sendable); ok {
					d.source = s.SendableBase().Source
					d.payload = string(s.SendableBase().Msg.Bytes())
				}
				*deliveredB = append(*deliveredB, d)
			}))
		}
		ch := q.CreateChannel("data", sched, opts...)
		if err := ch.Start(); err != nil {
			t.Fatal(err)
		}
		if !ch.WaitReady(2 * time.Second) {
			t.Fatal("channel never became ready")
		}
		return ch
	}
	a = mkChan(na, false)
	b = mkChan(nb, true)
	return a, b, deliveredB, mu
}

func TestPTPSendsAndDelivers(t *testing.T) {
	a, _, deliveredB, mu := buildPair(t)
	ev := &pingEv{}
	ev.Dest = 2
	ev.Msg = appia.NewMessage([]byte("hi"))
	if err := a.Insert(ev, appia.Down); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(*deliveredB)
		mu.Unlock()
		if n == 1 {
			mu.Lock()
			defer mu.Unlock()
			got := (*deliveredB)[0]
			if got.typ != "*transport.pingEv" {
				t.Fatalf("delivered %s", got.typ)
			}
			if got.source != 1 {
				t.Fatalf("source = %d", got.source)
			}
			if got.payload != "hi" {
				t.Fatalf("payload = %q", got.payload)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("never delivered")
}

func TestPTPDropsUnaddressed(t *testing.T) {
	a, _, deliveredB, mu := buildPair(t)
	ev := &pingEv{}
	ev.Msg = appia.NewMessage([]byte("nowhere"))
	if err := a.Insert(ev, appia.Down); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(*deliveredB) != 0 {
		t.Fatal("unaddressed event was transmitted")
	}
}
