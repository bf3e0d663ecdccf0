package core

import (
	"bytes"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/stack"
)

// The four wire events whose headers Core's two decoders parse, as the fuzz
// target's kind operand (mod coreWireKinds).
const (
	wirePrepare = iota
	wireGroupInfo
	wireJoin
	wireLeave
	coreWireKinds
)

type tapLayer struct {
	*appia.BaseLayer
	handle appia.SessionFunc
}

func (l tapLayer) NewSession() appia.Session { return l.handle }

// recordCoreWire runs a three-node control loop through one plain→mecho
// reconfiguration, a discovery query and a join announcement, and returns the
// header stack Core received for one event of each kind.
func recordCoreWire(t testing.TB) map[uint8][]byte {
	var (
		mu   sync.Mutex
		seen = make(map[uint8][]byte)
	)
	tap := tapLayer{
		&appia.BaseLayer{LayerName: "recorder", LayerSpec: appia.LayerSpec{
			Accepts: []appia.EventType{appia.TIface[appia.Sendable]()},
		}},
		func(ch *appia.Channel, ev appia.Event) {
			defer ch.Forward(ev)
			var kind uint8
			switch ev.(type) {
			case *PrepareEvent:
				kind = wirePrepare
			case *GroupInfoEvent:
				kind = wireGroupInfo
			case *GroupJoinEvent:
				kind = wireJoin
			default:
				return
			}
			if sb := ev.(appia.Sendable).SendableBase(); sb.Dir() == appia.Up && sb.Msg != nil {
				mu.Lock()
				seen[kind] = bytes.Clone(sb.Msg.Bytes())
				mu.Unlock()
			}
		},
	}
	sessions, _, done := startControlLoop(t, 3, tap)
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("control loop never completed a reconfiguration")
	}
	if err := sessions[2].AnnounceJoin(DefaultGroup, 3); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		// The query and its answer are unreliable: ask until one lands.
		if err := sessions[2].RequestGroupInfo(1, DefaultGroup); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		n, got := len(seen), maps.Clone(seen)
		mu.Unlock()
		if n == 3 {
			// A snapshot: the taps keep recording (every member receives
			// the join announcement) after this returns.
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("recorded %d of 3 event kinds", n)
		}
	}
}

// FuzzCoreWire feeds arbitrary header stacks, as each of Core's wire events,
// to a session hosting one group. Whatever arrives, Handle returns; headers
// that do not decode change nothing — not the group's epoch, configuration or
// membership, not the discovery cache; and a decoded member list is backed by
// the bytes that carried it, never sized by a count alone.
func FuzzCoreWire(f *testing.F) {
	for kind, headers := range recordCoreWire(f) {
		f.Add(kind, headers)
	}
	huge := appia.NewMessage(nil)
	huge.PushString("<appia/>")
	huge.PushUvarint(1 << 60) // a member count with no members behind it
	huge.PushString(PlainConfigName)
	huge.PushUvarint(2)
	huge.PushString(DefaultGroup)
	f.Add(uint8(wirePrepare), bytes.Clone(huge.Bytes()))

	// Nothing is deployed on the manager, so a Prepare that does decode ends
	// in ErrNotDeployed without touching a channel.
	mgr := stack.NewManager(stack.ManagerConfig{Self: 1})
	members := []appia.NodeID{1, 2, 3}
	f.Fuzz(func(t *testing.T, kind uint8, headers []byte) {
		s := NewLayer(Config{Self: 1}).NewSession().(*Session)
		if err := s.Register(GroupRuntime{Group: DefaultGroup, Manager: mgr, Members: members}); err != nil {
			t.Fatal(err)
		}
		wire := func() *appia.Message { return appia.FromWire(bytes.Clone(headers)) }
		kind %= coreWireKinds
		ev := [coreWireKinds]appia.Sendable{
			wirePrepare: &PrepareEvent{}, wireGroupInfo: &GroupInfoEvent{},
			wireJoin: &GroupJoinEvent{}, wireLeave: &GroupLeaveEvent{},
		}[kind]
		var (
			info GroupInfo
			err  error
		)
		if kind == wirePrepare || kind == wireGroupInfo {
			err = info.pop(wire())
		} else {
			err = new(groupMember).pop(wire())
		}
		if len(info.Members) > len(headers) {
			t.Fatalf("%d members decoded from %d bytes", len(info.Members), len(headers))
		}
		sb := ev.SendableBase()
		sb.Msg = wire()
		sb.SetDir(appia.Up)
		s.Handle(nil, ev)
		if err == nil {
			return
		}
		gs := s.lookup(DefaultGroup)
		if gs.epoch != 0 || gs.current != "" || !slices.Equal(gs.rt.Members, members) {
			t.Fatalf("undecodable headers moved the group to epoch %d, config %q, members %v", gs.epoch, gs.current, gs.rt.Members)
		}
		if len(s.infos) != 0 {
			t.Fatalf("undecodable headers reached the discovery cache: %v", s.infos)
		}
	})
}
