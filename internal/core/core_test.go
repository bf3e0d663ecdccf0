package core

import (
	"strings"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/cocaditem"
	"morpheus/internal/group"
	"morpheus/internal/stack"
	"morpheus/internal/transport"
	"morpheus/internal/vnet"
)

// --- Config document tests ---------------------------------------------------

func TestConfigDocumentsParse(t *testing.T) {
	docs := map[string]*appiaxml.Document{
		"plain":    PlainConfig(),
		"mecho":    MechoConfig(3),
		"arq":      ArqConfig(),
		"fec":      FecConfig(8, 2),
		"epidemic": EpidemicConfig(3, 4),
	}
	for name, d := range docs {
		xml, err := d.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := appiaxml.ParseString(xml)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := back.Channel("data"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestConfigDocumentsBuildable(t *testing.T) {
	w := vnet.NewWorld(1)
	t.Cleanup(func() { _ = w.Close() })
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})
	vn, err := w.AddNode(1, vnet.Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}
	sched := appia.NewScheduler()
	t.Cleanup(sched.Close)
	reg := stack.NewStandardRegistry()
	stack.RegisterAllWireEvents(nil)

	docs := []*appiaxml.Document{
		PlainConfig(), MechoConfig(1), ArqConfig(), FecConfig(4, 2), EpidemicConfig(3, 4),
	}
	for i, d := range docs {
		spec, err := d.Channel("data")
		if err != nil {
			t.Fatal(err)
		}
		env := &appiaxml.Env{
			Node: vn, Self: 1, Members: []appia.NodeID{1, 2},
			Port: "p", Scheduler: sched, Logf: t.Logf,
		}
		ch, err := appiaxml.BuildChannel(spec, reg, env)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if err := ch.Start(); err != nil {
			t.Fatal(err)
		}
		if !ch.WaitReady(2 * time.Second) {
			t.Fatalf("doc %d never ready", i)
		}
		if err := ch.Close(); err != nil {
			t.Fatal(err)
		}
		vn.Handle("p", nil) // release the port for the next build
	}
}

func TestMechoConfigName(t *testing.T) {
	if MechoConfigName(7) != "mecho:relay=7" {
		t.Fatal(MechoConfigName(7))
	}
}

// --- Policy tests -------------------------------------------------------------

// ctxWith builds a cocaditem session pre-loaded with samples, using the
// exported record path via a private constructor substitute: we drive the
// real session through its public Handle with fabricated publish events
// would be heavy; instead we use a real session and its record method via
// samples injected through Latest's backing store using the public API
// surface (Subscribe/Snapshot are read-only), so we go through an actual
// layer instance fed by direct struct construction.
func ctxWith(t *testing.T, samples []cocaditem.Sample) *cocaditem.Session {
	t.Helper()
	layer := cocaditem.NewLayer(cocaditem.Config{Self: 1})
	sess, ok := layer.NewSession().(*cocaditem.Session)
	if !ok {
		t.Fatal("unexpected session type")
	}
	for _, sm := range samples {
		sess.Inject(sm)
	}
	return sess
}

func dev(node appia.NodeID, class string) cocaditem.Sample {
	num := 0.0
	if class == "mobile" {
		num = 1
	}
	return cocaditem.Sample{Topic: cocaditem.TopicDeviceClass, Node: node, Num: num, Str: class, When: time.Now()}
}

func batt(node appia.NodeID, level float64) cocaditem.Sample {
	return cocaditem.Sample{Topic: cocaditem.TopicBattery, Node: node, Num: level, When: time.Now()}
}

func loss(node appia.NodeID, p float64) cocaditem.Sample {
	return cocaditem.Sample{Topic: cocaditem.TopicLinkLoss, Node: node, Num: p, When: time.Now()}
}

func view(members ...appia.NodeID) group.View {
	return group.View{ID: 1, Members: members}
}

func TestHybridMechoPolicy(t *testing.T) {
	p := HybridMechoPolicy{}

	// Incomplete context: no decision.
	in := PolicyInput{View: view(1, 2), Context: ctxWith(t, []cocaditem.Sample{dev(1, "fixed")}), Current: PlainConfigName}
	if d := p.Evaluate(in); d != nil {
		t.Fatalf("decided on incomplete context: %+v", d)
	}

	// Homogeneous fixed group on plain: no change.
	in = PolicyInput{View: view(1, 2), Context: ctxWith(t, []cocaditem.Sample{dev(1, "fixed"), dev(2, "fixed")}), Current: PlainConfigName}
	if d := p.Evaluate(in); d != nil {
		t.Fatalf("changed a settled homogeneous group: %+v", d)
	}

	// Hybrid group: deploy Mecho with the fixed relay.
	in = PolicyInput{View: view(1, 10), Context: ctxWith(t, []cocaditem.Sample{dev(1, "fixed"), dev(10, "mobile")}), Current: PlainConfigName}
	d := p.Evaluate(in)
	if d == nil || d.ConfigName != MechoConfigName(1) {
		t.Fatalf("decision = %+v", d)
	}

	// Hybrid with bandwidth context: best-bandwidth fixed node relays.
	in = PolicyInput{
		View: view(1, 2, 10),
		Context: ctxWith(t, []cocaditem.Sample{
			dev(1, "fixed"), dev(2, "fixed"), dev(10, "mobile"),
			{Topic: cocaditem.TopicBandwidth, Node: 1, Num: 10},
			{Topic: cocaditem.TopicBandwidth, Node: 2, Num: 100},
		}),
		Current: PlainConfigName,
	}
	d = p.Evaluate(in)
	if d == nil || d.ConfigName != MechoConfigName(2) {
		t.Fatalf("bandwidth-aware relay decision = %+v", d)
	}

	// Back to homogeneous (mobile left): restore plain.
	in = PolicyInput{View: view(1, 2), Context: ctxWith(t, []cocaditem.Sample{dev(1, "fixed"), dev(2, "fixed")}), Current: MechoConfigName(1)}
	d = p.Evaluate(in)
	if d == nil || d.ConfigName != PlainConfigName {
		t.Fatalf("homogeneous restore = %+v", d)
	}
}

func TestEnergyPolicy(t *testing.T) {
	p := EnergyPolicy{Hysteresis: 0.2}

	// Current relay close to the best: hold steady.
	in := PolicyInput{
		View:    view(1, 2, 3),
		Context: ctxWith(t, []cocaditem.Sample{batt(1, 0.8), batt(2, 0.9), batt(3, 0.7)}),
		Current: MechoConfigName(1),
	}
	if d := p.Evaluate(in); d != nil {
		t.Fatalf("rotated within hysteresis: %+v", d)
	}

	// Current relay drained: rotate to the best.
	in = PolicyInput{
		View:    view(1, 2, 3),
		Context: ctxWith(t, []cocaditem.Sample{batt(1, 0.3), batt(2, 0.9), batt(3, 0.7)}),
		Current: MechoConfigName(1),
	}
	d := p.Evaluate(in)
	if d == nil || d.ConfigName != MechoConfigName(2) {
		t.Fatalf("rotation decision = %+v", d)
	}

	// Incomplete battery context: wait.
	in = PolicyInput{
		View:    view(1, 2),
		Context: ctxWith(t, []cocaditem.Sample{batt(1, 0.5)}),
		Current: MechoConfigName(1),
	}
	if d := p.Evaluate(in); d != nil {
		t.Fatalf("decided on missing battery data: %+v", d)
	}
}

func TestErrorRecoveryPolicy(t *testing.T) {
	p := ErrorRecoveryPolicy{}

	// No loss reports: no decision.
	in := PolicyInput{View: view(1, 2), Context: ctxWith(t, nil), Current: ArqConfigName}
	if d := p.Evaluate(in); d != nil {
		t.Fatal("decided without loss data")
	}

	// High loss: switch to FEC.
	in = PolicyInput{View: view(1, 2), Context: ctxWith(t, []cocaditem.Sample{loss(1, 0.12)}), Current: ArqConfigName}
	d := p.Evaluate(in)
	if d == nil || d.ConfigName != FecConfigName {
		t.Fatalf("high loss decision = %+v", d)
	}

	// Mid-band loss: hysteresis holds the current config either way.
	in = PolicyInput{View: view(1, 2), Context: ctxWith(t, []cocaditem.Sample{loss(1, 0.05)}), Current: FecConfigName}
	if d := p.Evaluate(in); d != nil {
		t.Fatalf("hysteresis band violated: %+v", d)
	}
	in.Current = ArqConfigName
	if d := p.Evaluate(in); d != nil {
		t.Fatalf("hysteresis band violated (arq): %+v", d)
	}

	// Loss subsides from FEC: back to ARQ.
	in = PolicyInput{View: view(1, 2), Context: ctxWith(t, []cocaditem.Sample{loss(1, 0.01)}), Current: FecConfigName}
	d = p.Evaluate(in)
	if d == nil || d.ConfigName != ArqConfigName {
		t.Fatalf("recovery decision = %+v", d)
	}
}

func TestStaticPolicy(t *testing.T) {
	p := StaticPolicy{Config: "plain", Make: func() Decision {
		return Decision{ConfigName: "plain", Doc: PlainConfig()}
	}}
	in := PolicyInput{View: view(1, 2), Current: "other"}
	d := p.Evaluate(in)
	if d == nil || d.ConfigName != "plain" || len(d.Members) != 2 {
		t.Fatalf("static decision = %+v", d)
	}
	in.Current = "plain"
	if d := p.Evaluate(in); d != nil {
		t.Fatal("static policy re-decided")
	}
	if !strings.HasPrefix(p.Name(), "static:") {
		t.Fatal(p.Name())
	}
}

// --- Full control-loop test ---------------------------------------------------

// startControlLoop starts an n-node control channel whose default group
// runs the plain stack under a static policy asking for mecho(1), so the
// group's coordinator reconfigures it as soon as the loop is up. below, when
// non-nil, is placed directly beneath each node's Core layer. done receives
// the epoch of every completed reconfiguration.
func startControlLoop(t testing.TB, n int, below appia.Layer) (sessions []*Session, managers []*stack.Manager, done chan uint64) {
	t.Helper()
	w := vnet.NewWorld(3)
	t.Cleanup(func() { _ = w.Close() })
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})
	stack.RegisterAllWireEvents(nil)
	cocaditem.RegisterWireEvents(nil)
	RegisterWireEvents(nil)

	members := make([]appia.NodeID, n)
	for i := range members {
		members[i] = appia.NodeID(i + 1)
	}
	done = make(chan uint64, n)
	for _, id := range members {
		vn, err := w.AddNode(id, vnet.Fixed, "lan")
		if err != nil {
			t.Fatal(err)
		}
		sched := appia.NewScheduler()
		mgr := stack.NewManager(stack.ManagerConfig{
			Node: vn, Self: id, Scheduler: sched,
			Logf: func(string, ...any) {},
		})
		if err := mgr.Deploy(PlainConfig(), PlainConfigName, 1, members); err != nil {
			t.Fatal(err)
		}
		managers = append(managers, mgr)
		layers := []appia.Layer{
			transport.NewPTPLayer(transport.Config{Node: vn, Port: "ctl", Logf: t.Logf}),
			group.NewFanoutLayer(group.FanoutConfig{Self: id, InitialMembers: members}),
			group.NewNakLayer(group.NakConfig{Self: id, InitialMembers: members, NackDelay: 10 * time.Millisecond, StableInterval: 40 * time.Millisecond}),
			group.NewGMSLayer(group.GMSConfig{Self: id, InitialMembers: members}),
			cocaditem.NewLayer(cocaditem.Config{Self: id, Interval: 20 * time.Millisecond, Retrievers: []cocaditem.Retriever{cocaditem.DeviceClassRetriever(vn)}}),
		}
		if below != nil {
			layers = append(layers, below)
		}
		layers = append(layers, NewLayer(Config{
			Self: id,
			Groups: []GroupRuntime{{
				Group:   DefaultGroup,
				Manager: mgr,
				Members: members,
				Policies: []Policy{StaticPolicy{Config: MechoConfigName(1), Make: func() Decision {
					return Decision{ConfigName: MechoConfigName(1), Doc: MechoConfig(1)}
				}}},
				OnReconfigured: func(epoch uint64, name string, took time.Duration) {
					done <- epoch
				},
			}},
			EvalInterval: 30 * time.Millisecond,
		}))
		q, err := appia.NewQoS("ctl", layers...)
		if err != nil {
			t.Fatal(err)
		}
		ch := q.CreateChannel("ctl", sched)
		if err := ch.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = ch.Close()
			_ = mgr.Close()
			sched.Close()
		})
		sessions = append(sessions, ch.SessionFor("core").(*Session))
	}
	return sessions, managers, done
}

// TestCoreControlLoop drives a 2-node control channel with a static policy
// and verifies the prepare/deploy/ack cycle completes.
func TestCoreControlLoop(t *testing.T) {
	_, managers, done := startControlLoop(t, 2, nil)
	select {
	case epoch := <-done:
		if epoch != 2 {
			t.Fatalf("epoch = %d", epoch)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("control loop never completed a reconfiguration")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if managers[0].Deployment().ConfigName == MechoConfigName(1) && managers[1].Deployment().ConfigName == MechoConfigName(1) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("managers = %q, %q", managers[0].Deployment().ConfigName, managers[1].Deployment().ConfigName)
}
