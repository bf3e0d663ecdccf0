package group

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/transport"
	"morpheus/internal/vnet"
)

// testNode bundles one simulated group member.
type testNode struct {
	id    appia.NodeID
	node  *vnet.Node
	sched *appia.Scheduler
	ch    *appia.Channel

	mu        sync.Mutex
	delivered []string // payloads of delivered data casts
	views     []View
	events    []appia.Event // delivered events the channel does not release (views, quiescence)
}

func (tn *testNode) deliveredList() []string {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	cp := make([]string, len(tn.delivered))
	copy(cp, tn.delivered)
	return cp
}

func (tn *testNode) viewList() []View {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	cp := make([]View, len(tn.views))
	copy(cp, tn.views)
	return cp
}

// stackOpts controls which optional layers the test stack includes.
type stackOpts struct {
	causal   bool
	total    bool
	enableFD bool
	nak      NakConfig
	gms      GMSConfig
	loss     float64
	seed     int64
	// tap, when set, sits directly below node 1's reliable layer and sees
	// its wire traffic in both directions.
	tap appia.Layer
}

// buildCluster creates n nodes (IDs 1..n) on one lossless LAN running the
// full group stack, started and ready.
func buildCluster(t testing.TB, n int, opts stackOpts) []*testNode {
	t.Helper()
	seed := opts.seed
	if seed == 0 {
		seed = 1
	}
	w := vnet.NewWorld(seed)
	t.Cleanup(func() { _ = w.Close() })
	w.AddSegment(vnet.SegmentConfig{Name: "lan", Loss: opts.loss})
	RegisterWireEvents(nil)

	members := make([]appia.NodeID, n)
	for i := range members {
		members[i] = appia.NodeID(i + 1)
	}
	nodes := make([]*testNode, n)
	for i := 0; i < n; i++ {
		id := appia.NodeID(i + 1)
		vn, err := w.AddNode(id, vnet.Fixed, "lan")
		if err != nil {
			t.Fatal(err)
		}
		tn := &testNode{id: id, node: vn, sched: appia.NewScheduler()}
		t.Cleanup(tn.sched.Close)

		nak := opts.nak
		nak.Self = id
		nak.InitialMembers = members
		if nak.NackDelay == 0 {
			nak.NackDelay = 10 * time.Millisecond
		}
		if nak.StableInterval == 0 {
			nak.StableInterval = 50 * time.Millisecond
		}
		gms := opts.gms
		gms.Self = id
		gms.InitialMembers = members
		gms.EnableFD = opts.enableFD

		layers := []appia.Layer{
			transport.NewPTPLayer(transport.Config{Node: vn, Port: "grp", Logf: t.Logf}),
			NewFanoutLayer(FanoutConfig{Self: id, InitialMembers: members}),
		}
		if opts.tap != nil && i == 0 {
			layers = append(layers, opts.tap)
		}
		layers = append(layers, NewNakLayer(nak), NewGMSLayer(gms))
		if opts.causal {
			layers = append(layers, NewCausalLayer(CausalConfig{Self: id}))
		}
		if opts.total {
			layers = append(layers, NewTotalLayer(TotalConfig{Self: id}))
		}
		q, err := appia.NewQoS("test", layers...)
		if err != nil {
			t.Fatal(err)
		}
		tn.ch = q.CreateChannel("data", tn.sched, appia.WithDeliver(func(ev appia.Event) {
			tn.mu.Lock()
			defer tn.mu.Unlock()
			if _, ok := ev.(appia.Sendable); !ok { // the channel releases a Sendable after the upcall
				tn.events = append(tn.events, ev)
			}
			switch e := ev.(type) {
			case *CastEvent:
				tn.delivered = append(tn.delivered, string(e.Msg.Bytes()))
			case *ViewInstall:
				tn.views = append(tn.views, e.View)
			}
		}))
		nodes[i] = tn
	}
	for _, tn := range nodes {
		if err := tn.ch.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for every stack to come up (initial view announced) before
	// handing the cluster to the test; otherwise early frames race the
	// port binding and only the stability repair path would save them.
	for _, tn := range nodes {
		tn := tn
		eventually(t, 2*time.Second, "stack up", func() bool {
			return len(tn.viewList()) >= 1
		})
	}
	return nodes
}

// cast multicasts a payload from the node.
func (tn *testNode) cast(t testing.TB, payload string) {
	t.Helper()
	ev := &CastEvent{}
	ev.Msg = appia.NewMessage([]byte(payload))
	if err := tn.ch.Insert(ev, appia.Down); err != nil {
		t.Fatalf("node %d cast: %v", tn.id, err)
	}
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

func TestReliableMulticastAllDeliver(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{})
	nodes[0].cast(t, "hello")
	nodes[1].cast(t, "world")
	for _, tn := range nodes {
		tn := tn
		eventually(t, 3*time.Second, fmt.Sprintf("node %d delivers 2", tn.id), func() bool {
			return len(tn.deliveredList()) == 2
		})
	}
}

func TestSenderSelfDelivery(t *testing.T) {
	nodes := buildCluster(t, 2, stackOpts{})
	nodes[0].cast(t, "mine")
	eventually(t, 3*time.Second, "sender self-delivers", func() bool {
		got := nodes[0].deliveredList()
		return len(got) == 1 && got[0] == "mine"
	})
}

func TestFIFOPerSender(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{})
	const k = 50
	for i := 0; i < k; i++ {
		nodes[0].cast(t, fmt.Sprintf("m%03d", i))
	}
	for _, tn := range nodes {
		tn := tn
		eventually(t, 5*time.Second, fmt.Sprintf("node %d delivers %d", tn.id, k), func() bool {
			return len(tn.deliveredList()) == k
		})
		got := tn.deliveredList()
		for i := 0; i < k; i++ {
			want := fmt.Sprintf("m%03d", i)
			if got[i] != want {
				t.Fatalf("node %d: position %d = %q, want %q (FIFO violated)", tn.id, i, got[i], want)
			}
		}
	}
}

func TestReliabilityUnderLoss(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{loss: 0.25, seed: 7})
	const k = 40
	for i := 0; i < k; i++ {
		nodes[0].cast(t, fmt.Sprintf("x%03d", i))
	}
	for _, tn := range nodes {
		tn := tn
		eventually(t, 10*time.Second, fmt.Sprintf("node %d recovers all under 25%% loss", tn.id), func() bool {
			return len(tn.deliveredList()) == k
		})
	}
}

func TestInitialViewInstalled(t *testing.T) {
	nodes := buildCluster(t, 4, stackOpts{})
	for _, tn := range nodes {
		tn := tn
		eventually(t, 2*time.Second, "initial view", func() bool {
			vs := tn.viewList()
			return len(vs) >= 1 && len(vs[0].Members) == 4 && vs[0].Coordinator() == 1
		})
	}
}

func TestTriggerFlushInstallsNewView(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{})
	// Let the initial view settle.
	eventually(t, 2*time.Second, "initial views", func() bool {
		for _, tn := range nodes {
			if len(tn.viewList()) < 1 {
				return false
			}
		}
		return true
	})
	// Trigger a flush at the coordinator (node 1).
	if err := nodes[0].ch.Insert(&TriggerFlush{}, appia.Down); err != nil {
		t.Fatal(err)
	}
	for _, tn := range nodes {
		tn := tn
		eventually(t, 5*time.Second, fmt.Sprintf("node %d installs view 2", tn.id), func() bool {
			vs := tn.viewList()
			return len(vs) >= 2 && vs[len(vs)-1].ID == 2
		})
	}
}

func TestViewSynchronyUnderTraffic(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{loss: 0.1, seed: 3})
	const k = 30
	for i := 0; i < k; i++ {
		nodes[i%3].cast(t, fmt.Sprintf("t%03d", i))
	}
	if err := nodes[0].ch.Insert(&TriggerFlush{}, appia.Down); err != nil {
		t.Fatal(err)
	}
	// After the flush everyone must have delivered the same set.
	for _, tn := range nodes {
		tn := tn
		eventually(t, 10*time.Second, fmt.Sprintf("node %d view 2", tn.id), func() bool {
			vs := tn.viewList()
			return len(vs) >= 2
		})
	}
	eventually(t, 10*time.Second, "all deliver everything", func() bool {
		for _, tn := range nodes {
			if len(tn.deliveredList()) != k {
				return false
			}
		}
		return true
	})
	// Same multiset (per-sender FIFO implies same sequences; compare as
	// sorted copies).
	base := sortedCopy(nodes[0].deliveredList())
	for _, tn := range nodes[1:] {
		got := sortedCopy(tn.deliveredList())
		if len(got) != len(base) {
			t.Fatalf("delivery sets differ in size")
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("delivery sets differ: %v vs %v", base[i], got[i])
			}
		}
	}
}

func TestCrashedMemberEvicted(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{
		enableFD: true,
		gms: GMSConfig{
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectAfter:      100 * time.Millisecond,
		},
	})
	eventually(t, 2*time.Second, "initial views", func() bool {
		for _, tn := range nodes {
			if len(tn.viewList()) < 1 {
				return false
			}
		}
		return true
	})
	nodes[2].node.SetDown(true)
	for _, tn := range nodes[:2] {
		tn := tn
		eventually(t, 5*time.Second, fmt.Sprintf("node %d evicts node 3", tn.id), func() bool {
			vs := tn.viewList()
			last := vs[len(vs)-1]
			return len(last.Members) == 2 && !last.Contains(3)
		})
	}
	// Traffic keeps flowing in the new view.
	nodes[0].cast(t, "after-eviction")
	for _, tn := range nodes[:2] {
		tn := tn
		eventually(t, 3*time.Second, "post-eviction delivery", func() bool {
			got := tn.deliveredList()
			return len(got) >= 1 && got[len(got)-1] == "after-eviction"
		})
	}
}

func TestCoordinatorCrashPromotesNext(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{
		enableFD: true,
		gms: GMSConfig{
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectAfter:      100 * time.Millisecond,
		},
	})
	eventually(t, 2*time.Second, "initial views", func() bool {
		for _, tn := range nodes {
			if len(tn.viewList()) < 1 {
				return false
			}
		}
		return true
	})
	nodes[0].node.SetDown(true) // kill the coordinator
	for _, tn := range nodes[1:] {
		tn := tn
		eventually(t, 5*time.Second, fmt.Sprintf("node %d installs coordinator 2", tn.id), func() bool {
			vs := tn.viewList()
			last := vs[len(vs)-1]
			return last.Coordinator() == 2 && !last.Contains(1)
		})
	}
}

func sortedCopy(ss []string) []string {
	cp := make([]string, len(ss))
	copy(cp, ss)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp
}

func TestTotalOrderAgreement(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{total: true, loss: 0.1, seed: 5})
	const k = 20
	for i := 0; i < k; i++ {
		nodes[i%3].cast(t, fmt.Sprintf("z%03d-%d", i, i%3))
	}
	for _, tn := range nodes {
		tn := tn
		eventually(t, 10*time.Second, fmt.Sprintf("node %d delivers %d ordered", tn.id, k), func() bool {
			return len(tn.deliveredList()) == k
		})
	}
	base := nodes[0].deliveredList()
	for _, tn := range nodes[1:] {
		got := tn.deliveredList()
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("total order violated at %d: node1=%q node%d=%q", i, base[i], tn.id, got[i])
			}
		}
	}
}

func TestCausalOrderRespected(t *testing.T) {
	nodes := buildCluster(t, 3, stackOpts{causal: true})
	// Node 1 sends a; node 2 replies b after seeing a. Every member must
	// deliver a before b.
	nodes[0].cast(t, "a")
	eventually(t, 3*time.Second, "node2 sees a", func() bool {
		got := nodes[1].deliveredList()
		return len(got) == 1 && got[0] == "a"
	})
	nodes[1].cast(t, "b")
	for _, tn := range nodes {
		tn := tn
		eventually(t, 3*time.Second, "causal pair delivered", func() bool {
			return len(tn.deliveredList()) == 2
		})
		got := tn.deliveredList()
		if got[0] != "a" || got[1] != "b" {
			t.Fatalf("node %d: causal order violated: %v", tn.id, got)
		}
	}
}

func TestViewEncoding(t *testing.T) {
	var m appia.Message
	in := View{ID: 42, Members: []appia.NodeID{1, 5, 9}}
	pushView(&m, in)
	out, err := popView(&m)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || len(out.Members) != 3 || out.Members[2] != 9 {
		t.Fatalf("roundtrip = %+v", out)
	}
}

func TestDeliveredVectorEncoding(t *testing.T) {
	var m appia.Message
	in := DeliveredVector{1: 10, 3: 7}
	in.push(&m)
	out, err := popVector(&m)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Equal(out) {
		t.Fatalf("roundtrip = %v, want %v", out, in)
	}
	if in.Equal(DeliveredVector{1: 10}) {
		t.Fatal("Equal ignored missing key")
	}
	if !(DeliveredVector{1: 0}).Equal(DeliveredVector{}) {
		t.Fatal("zero entries must equal absent entries")
	}
}

func TestNormalizeMembers(t *testing.T) {
	got := NormalizeMembers([]appia.NodeID{5, 1, 3, 1, 5})
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("NormalizeMembers = %v", got)
	}
}

func TestViewCoordinatorEmpty(t *testing.T) {
	if (View{}).Coordinator() != appia.NoNode {
		t.Fatal("empty view coordinator must be NoNode")
	}
}
