package appia_test

import (
	"testing"

	"morpheus/internal/appia"
	"morpheus/internal/group"
)

// TestEventRecycleZeroAlloc asserts that a cast's event life cycle — built
// from its kind name as the transport does per frame, cloned as a fan-out
// does per destination, released at both terminal points — allocates nothing
// once the pools are warm.
func TestEventRecycleZeroAlloc(t *testing.T) {
	if appia.Poisoning {
		t.Skip("race build: released events are never reused")
	}
	reg := appia.NewEventKindRegistry()
	group.RegisterWireEvents(reg)
	kind := []byte("group.cast")
	payload := make([]byte, 128)
	cycle := func() {
		ev, err := reg.NewFromBytes(kind)
		if err != nil {
			t.Fatal(err)
		}
		ev.SendableBase().Msg = appia.NewMessage(payload)
		cp := appia.CloneSendable(ev)
		cp.SendableBase().Dest = 2
		appia.ReleaseEvent(cp)
		appia.ReleaseEvent(ev)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("event life cycle allocates %.1f times per op, want 0", allocs)
	}
}

// TestReleasedEventIsZero: a recycled event is indistinguishable from a fresh
// one — every field of its type is reset, local metadata such as a cast's
// origin, sequence number, group tag and credit included.
func TestReleasedEventIsZero(t *testing.T) {
	if appia.Poisoning {
		t.Skip("race build: released events are never reused")
	}
	for i := 0; i < 64; i++ {
		ev := group.NewCastEvent()
		if ev.Origin != 0 || ev.Seq != 0 || ev.Group != "" || ev.Credit.Msgs != 0 ||
			ev.Msg != nil || ev.Source != 0 || ev.Dest != 0 || ev.Class != "" || ev.Channel() != nil {
			t.Fatalf("recycled cast carries state: %+v", *ev)
		}
		ev.Origin, ev.Seq, ev.Group, ev.Credit.Msgs = 3, 7, "g", 1
		ev.Msg = appia.NewMessage([]byte("x"))
		ev.Source, ev.Dest, ev.Class = 3, 2, appia.ClassData
		appia.ReleaseEvent(ev)
	}
}
