package stack

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/group"
	"morpheus/internal/vnet"
)

// plainDoc composes the standard reliable stack (mirrors core.PlainConfig,
// duplicated here to avoid an import cycle in tests).
func plainDoc() *appiaxml.Document {
	return &appiaxml.Document{Channels: []appiaxml.ChannelSpec{{
		Name: "data",
		Sessions: []appiaxml.SessionSpec{
			{Layer: "transport.ptp"},
			{Layer: "group.fanout"},
			{Layer: "group.nak"},
			{Layer: "group.gms"},
		},
	}}}
}

func mechoDoc(relay appia.NodeID) *appiaxml.Document {
	return &appiaxml.Document{Channels: []appiaxml.ChannelSpec{{
		Name: "data",
		Sessions: []appiaxml.SessionSpec{
			{Layer: "transport.ptp"},
			{Layer: "mecho", Params: []appiaxml.ParamSpec{
				{Name: "relay", Value: fmt.Sprintf("%d", relay)},
			}},
			{Layer: "group.nak"},
			{Layer: "group.gms"},
		},
	}}}
}

type mgrNode struct {
	id        appia.NodeID
	vn        *vnet.Node
	sched     *appia.Scheduler
	mgr       *Manager
	mu        sync.Mutex
	delivered []string
}

func (m *mgrNode) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.delivered)
}

func buildManagers(t *testing.T, n int) []*mgrNode {
	t.Helper()
	w := vnet.NewWorld(12)
	t.Cleanup(func() { _ = w.Close() })
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})
	RegisterAllWireEvents(nil)

	members := make([]appia.NodeID, n)
	for i := range members {
		members[i] = appia.NodeID(i + 1)
	}
	var nodes []*mgrNode
	for _, id := range members {
		vn, err := w.AddNode(id, vnet.Fixed, "lan")
		if err != nil {
			t.Fatal(err)
		}
		m := &mgrNode{id: id, vn: vn, sched: appia.NewScheduler()}
		t.Cleanup(m.sched.Close)
		m.mgr = NewManager(ManagerConfig{
			Node: vn, Self: id, Scheduler: m.sched,
			OnDeliver: func(ev *group.CastEvent) {
				m.mu.Lock()
				m.delivered = append(m.delivered, string(ev.Msg.Bytes()))
				m.mu.Unlock()
			},
			Logf: func(string, ...any) {},
		})
		if err := m.mgr.Deploy(plainDoc(), "plain", 1, members); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.mgr.Close() })
		nodes = append(nodes, m)
	}
	return nodes
}

func TestManagerDeployAndSend(t *testing.T) {
	nodes := buildManagers(t, 3)
	if d := nodes[0].mgr.Deployment(); d.Epoch != 1 || d.ConfigName != "plain" {
		t.Fatalf("epoch=%d config=%q", d.Epoch, d.ConfigName)
	}
	if err := nodes[0].mgr.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, m := range nodes {
			if m.count() < 1 {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatal("message never delivered everywhere")
}

func TestManagerSendBeforeDeploy(t *testing.T) {
	w := vnet.NewWorld(1)
	t.Cleanup(func() { _ = w.Close() })
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})
	vn, err := w.AddNode(1, vnet.Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}
	sched := appia.NewScheduler()
	t.Cleanup(sched.Close)
	m := NewManager(ManagerConfig{Node: vn, Self: 1, Scheduler: sched, Logf: func(string, ...any) {}})
	if err := m.Send([]byte("x")); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("err = %v", err)
	}
}

// TestManagerReconfigure exercises the full §3.3 procedure across three
// nodes, with traffic before, during and after.
func TestManagerReconfigure(t *testing.T) {
	nodes := buildManagers(t, 3)
	if err := nodes[1].mgr.Send([]byte("pre")); err != nil {
		t.Fatal(err)
	}

	// All nodes reconfigure concurrently (as Core would make them).
	var wg sync.WaitGroup
	errs := make([]error, len(nodes))
	members := []appia.NodeID{1, 2, 3}
	for i, m := range nodes {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.mgr.Reconfigure(Deployment{Epoch: 2, ConfigName: "mecho", Members: members, Doc: mechoDoc(1)})
		}()
	}
	// Send during the reconfiguration window: must be buffered, not lost.
	if err := nodes[0].mgr.Send([]byte("during")); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d reconfigure: %v", i+1, err)
		}
	}
	for _, m := range nodes {
		if d := m.mgr.Deployment(); d.Epoch != 2 || d.ConfigName != "mecho" {
			t.Fatalf("node %d: epoch=%d config=%q", m.id, d.Epoch, d.ConfigName)
		}
	}
	if err := nodes[2].mgr.Send([]byte("post")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, m := range nodes {
			if m.count() < 3 { // pre + during + post
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	for _, m := range nodes {
		t.Logf("node %d delivered %v", m.id, m.delivered)
	}
	t.Fatal("messages lost across reconfiguration")
}

func TestManagerStaleEpochRejected(t *testing.T) {
	nodes := buildManagers(t, 2)
	err := nodes[0].mgr.Reconfigure(Deployment{Epoch: 1, ConfigName: "plain", Members: []appia.NodeID{1, 2}, Doc: plainDoc()})
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v", err)
	}
}

func TestStandardRegistryNames(t *testing.T) {
	reg := NewStandardRegistry()
	want := []string{
		"epidemic", "fec", "group.causal", "group.fanout", "group.gms",
		"group.nak", "group.total", "mecho", "transport.nativemcast", "transport.ptp",
	}
	got := reg.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestMechoModeResolution(t *testing.T) {
	w := vnet.NewWorld(2)
	t.Cleanup(func() { _ = w.Close() })
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true})
	fixedN, err := w.AddNode(1, vnet.Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}
	mobileN, err := w.AddNode(2, vnet.Mobile, "wlan")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		mode  string
		self  appia.NodeID
		node  *vnet.Node
		relay appia.NodeID
		want  string
		bad   bool
	}{
		{mode: "wireless", self: 2, node: mobileN, relay: 1, want: "wireless"},
		{mode: "wired", self: 1, node: fixedN, relay: 1, want: "wired"},
		{mode: "auto", self: 1, node: fixedN, relay: 1, want: "wired"},     // the relay echoes
		{mode: "auto", self: 2, node: mobileN, relay: 1, want: "wireless"}, // mobile non-relay
		{mode: "auto", self: 1, node: fixedN, relay: 9, want: "wired"},     // fixed non-relay
		{mode: "bogus", self: 1, node: fixedN, relay: 1, bad: true},
	}
	for _, tc := range cases {
		env := &appiaxml.Env{Self: tc.self, Node: tc.node}
		got, err := resolveMechoMode(tc.mode, env, tc.relay)
		if tc.bad {
			if err == nil {
				t.Fatalf("mode %q accepted", tc.mode)
			}
			continue
		}
		if err != nil {
			t.Fatalf("mode %q: %v", tc.mode, err)
		}
		if got.String() != tc.want {
			t.Fatalf("mode %q self %d: got %v want %v", tc.mode, tc.self, got, tc.want)
		}
	}
}
