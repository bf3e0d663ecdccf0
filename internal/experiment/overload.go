package experiment

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"morpheus"
	"morpheus/internal/appia"
	"morpheus/internal/chaos/invariants"
	"morpheus/internal/clock"
	"morpheus/internal/core"
)

// --- E10: bounded-memory overload ------------------------------------------
//
// E10 is the runtime's bounded-memory proof: flooding senders, a
// mid-flood plain→Mecho reconfiguration, and a peer partitioned while the
// flood is still running. Without flow control this is exactly the
// scenario that grows the scheduler mailbox, the NAK retransmission
// buffers and the resubmit buffers without bound (the partitioned peer
// stops stability gossip cold). With per-group send windows the run must
// show: every retention high-water mark bounded by a SendWindow-derived
// cap (never by the flood length), senders stalling while the partition
// holds and resuming the moment the failure detector's eviction flushes
// the dead peer out, zero cap evictions, and exact credit accounting —
// all pinned bit-for-bit by the golden-replay suite.

// OverloadRow reports one participant of the E10 scenario.
type OverloadRow struct {
	Node appia.NodeID
	// Sent is how many payloads the node's sender accepted (blocking
	// senders always reach Messages; the TrySend sender also reports
	// Rejected, its ErrWindowFull backpressure signals).
	Sent     int
	Rejected uint64
	// Delivered counts payload deliveries at this node (own included).
	Delivered int
	// Window occupancy: high-water mark, in-use at harvest (must be 0 at
	// quiescence), and total credits acquired/released (must balance).
	WindowHighWater    int
	WindowInUse        int
	Acquired, Released uint64
	// MailboxHighWater is the group scheduler's deepest mailbox.
	MailboxHighWater int
	// NAK retention high-water marks (aggregated across epochs) and cap
	// evictions (want 0: the windows keep retention under the caps).
	NakSentHW, NakHistoryHW, NakBufferHW int
	NakEvicted                           int
	// Epoch/Config are the group's final deployment.
	Epoch  uint64
	Config string
}

// OverloadConfig parameterises E10.
type OverloadConfig struct {
	// Messages are sent per flooding sender (default 500), paced at 1ms
	// of virtual time so the flood spans the reconfiguration and the
	// partition.
	Messages int
	// SendWindow is the per-group window under test (default 64).
	SendWindow int
	// Timeout bounds the run (virtual time).
	Timeout time.Duration
	// Seed drives the virtual network.
	Seed int64
	// Logf, when set, receives every node's control-plane diagnostics.
	Logf func(format string, args ...any)
}

func (c *OverloadConfig) defaults() {
	if c.Messages == 0 {
		c.Messages = 500
	}
	if c.SendWindow == 0 {
		c.SendWindow = 64
	}
	if c.Timeout == 0 {
		c.Timeout = 120 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 29
	}
}

// victimID is the partitioned peer: a pure receiver whose silence stalls
// stability gossip group-wide.
const victimID appia.NodeID = 4

// e10Payload marks a payload with its sender.
func e10Payload(id appia.NodeID, i int) []byte {
	return []byte(fmt.Sprintf("e10;n=%d;i=%06d", id, i))
}

// RunOverload is E10. Topology: fixed nodes 1 (relay/coordinator), 2, 3
// (blocking flooders), 4 (victim) on the LAN plus the mobile PDA (TrySend
// flooder) on the WLAN, all under the hybrid Mecho policy and a
// SendWindow-bounded default group. Phases, all mid-flood:
//
//  1. the flood starts on the plain stack; the policy reconfigures to
//     Mecho underneath it (resubmit buffers and credits cross epochs);
//  2. once Mecho settles, node 4 is partitioned: stability gossip stalls,
//     windows fill, blocking senders park and the TrySend sender sees
//     ErrWindowFull;
//  3. the control failure detector evicts node 4; the membership-repair
//     redeployment flushes it out of the data channel, which releases the
//     stalled credits wholesale, and the flood drains to completion.
func RunOverload(cfg OverloadConfig) ([]OverloadRow, error) {
	cfg.defaults()
	members := []appia.NodeID{1, 2, 3, victimID, MobileID}
	senders := []appia.NodeID{2, 3, MobileID}

	clk := clock.NewVirtual()
	defer clk.Stop()
	w := hybridWorld(cfg.Seed, clk)
	defer w.Close()

	type tally struct {
		mu        sync.Mutex
		delivered int
	}
	tallies := make(map[appia.NodeID]*tally, len(members))
	nodes := make(map[appia.NodeID]*morpheus.Node, len(members))
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for _, id := range members {
		id := id
		kind, seg := morpheus.Fixed, "lan"
		if id == MobileID {
			kind, seg = morpheus.Mobile, "wlan"
		}
		tl := &tally{}
		tallies[id] = tl
		nd, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: kind, Segments: []string{seg},
			Members:         members,
			Policies:        []morpheus.Policy{core.HybridMechoPolicy{}},
			ContextInterval: 40 * time.Millisecond,
			EvalInterval:    50 * time.Millisecond,
			PublishOnChange: true,
			SendWindow:      cfg.SendWindow,
			Logf:            cfg.Logf,
			OnMessage: func(from morpheus.NodeID, payload []byte) {
				tl.mu.Lock()
				tl.delivered++
				tl.mu.Unlock()
			},
		})
		if err != nil {
			return nil, err
		}
		nodes[id] = nd
	}
	delivered := func(id appia.NodeID) int {
		tl := tallies[id]
		tl.mu.Lock()
		defer tl.mu.Unlock()
		return tl.delivered
	}

	// Flood: one paced sender actor per flooding member. The fixed nodes
	// use the blocking Send; the mobile uses TrySend and counts the
	// window-full rejections it rides out.
	sent := make(map[appia.NodeID]*atomic.Int64, len(senders))
	rejected := make(map[appia.NodeID]*atomic.Uint64, len(senders))
	var sendErr error
	var sendErrMu sync.Mutex
	fail := func(err error) {
		sendErrMu.Lock()
		if sendErr == nil {
			sendErr = err
		}
		sendErrMu.Unlock()
	}
	dones := make([]chan struct{}, 0, len(senders))
	for _, id := range senders {
		id := id
		n := new(atomic.Int64)
		rej := new(atomic.Uint64)
		sent[id], rejected[id] = n, rej
		d := make(chan struct{})
		dones = append(dones, d)
		g := nodes[id].Group(morpheus.DefaultGroup)
		clk.Go(func() {
			defer close(d)
			for int(n.Load()) < cfg.Messages {
				payload := e10Payload(id, int(n.Load()))
				var err error
				if id == MobileID {
					err = g.TrySend(payload)
					if errors.Is(err, morpheus.ErrWindowFull) {
						rej.Add(1)
						clk.Sleep(time.Millisecond)
						continue
					}
				} else {
					err = g.Send(payload)
				}
				if err != nil {
					fail(fmt.Errorf("sender %d after %d sends: %w", id, n.Load(), err))
					return
				}
				n.Add(1)
				clk.Sleep(time.Millisecond)
			}
		})
	}

	// Mid-flood reconfiguration: the hybrid policy deploys Mecho while the
	// flood runs. Wait for it to settle everywhere, then partition the
	// victim while the senders are still flooding.
	if !waitFor(clk, cfg.Timeout, func() bool {
		for _, nd := range nodes {
			if nd.ConfigName() != core.MechoConfigName(1) {
				return false
			}
		}
		return true
	}) {
		return nil, fmt.Errorf("e10: mecho never settled mid-flood")
	}
	nodes[victimID].VNode().SetDown(true)

	for i, d := range dones {
		if !clk.WaitTimeout(d, cfg.Timeout) {
			return nil, fmt.Errorf("e10: sender %d never finished (%s)", senders[i], flowDebug(nodes, senders, sent))
		}
	}
	if sendErr != nil {
		return nil, sendErr
	}

	// Completion: every survivor delivers the full flood (the repair
	// flush has evicted the victim), and every credit returns.
	survivors := []appia.NodeID{1, 2, 3, MobileID}
	total := len(senders) * cfg.Messages
	if !waitFor(clk, cfg.Timeout, func() bool {
		for _, id := range survivors {
			if delivered(id) < total {
				return false
			}
		}
		return true
	}) {
		return nil, fmt.Errorf("e10: deliveries incomplete after partition recovery")
	}
	if !waitFor(clk, cfg.Timeout, func() bool {
		for _, id := range survivors {
			nd := nodes[id]
			fs := nd.Group(morpheus.DefaultGroup).FlowStats()
			if fs.Window.InUse != 0 || fs.BufferedSends != 0 {
				return false
			}
			for _, m := range nd.Manager().Deployment().Members {
				if m == victimID {
					return false
				}
			}
		}
		return true
	}) {
		return nil, fmt.Errorf("e10: windows never drained (or victim never evicted)")
	}
	// Let the tail of control traffic settle at a fixed virtual instant so
	// the harvested marks are stable.
	clk.Sleep(500 * time.Millisecond)

	rows := make([]OverloadRow, 0, len(survivors))
	for _, id := range survivors {
		nd := nodes[id]
		g := nd.Group(morpheus.DefaultGroup)
		fs := g.FlowStats()
		row := OverloadRow{
			Node:             id,
			Delivered:        delivered(id),
			WindowHighWater:  fs.Window.HighWater,
			WindowInUse:      fs.Window.InUse,
			Acquired:         fs.Window.Acquired,
			Released:         fs.Window.Released,
			MailboxHighWater: fs.MailboxHighWater,
			NakSentHW:        fs.Nak.SentHighWater,
			NakHistoryHW:     fs.Nak.HistoryHighWater,
			NakBufferHW:      fs.Nak.BufferHighWater,
			NakEvicted:       fs.Nak.Evicted,
			Epoch:            g.Epoch(),
			Config:           g.ConfigName(),
		}
		if n, ok := sent[id]; ok {
			row.Sent = int(n.Load())
		}
		if r, ok := rejected[id]; ok {
			row.Rejected = r.Load()
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Node < rows[j].Node })
	return rows, nil
}

// flowDebug renders every node's flow state for timeout diagnostics.
func flowDebug(nodes map[appia.NodeID]*morpheus.Node, senders []appia.NodeID, sent map[appia.NodeID]*atomic.Int64) string {
	ids := make([]appia.NodeID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b []byte
	for _, id := range ids {
		fs := nodes[id].Group(morpheus.DefaultGroup).FlowStats()
		b = fmt.Appendf(b, "[%d inuse=%d acq=%d rel=%d buffered=%d naksentHW=%d epoch=%d cfg=%s members=%v",
			id, fs.Window.InUse, fs.Window.Acquired, fs.Window.Released,
			fs.BufferedSends, fs.Nak.SentHighWater, nodes[id].Epoch(), nodes[id].ConfigName(), nodes[id].Manager().Deployment().Members)
		if n, ok := sent[id]; ok {
			b = fmt.Appendf(b, " sent=%d", n.Load())
		}
		b = fmt.Appendf(b, "] ")
	}
	return string(b)
}

// OverloadCaps are the SendWindow-derived bounds E10 asserts: retention
// and occupancy must scale with the window, never with the flood length.
// They are the chaos plane's shared invariant checker — E10 was the first
// consumer; the fault-schedule fuzzer (internal/chaos) applies the same
// bounds to every generated schedule.
type OverloadCaps = invariants.Caps

// CapsFor derives the E10 bounds from a window size and the number of
// concurrently flooding senders.
func CapsFor(window, senders int) OverloadCaps {
	return invariants.CapsFor(window, senders)
}

// Flow projects the row's flow-control columns into the shared invariant
// checker's shape. BufferedSends is not part of OverloadRow (E10's harvest
// barrier drains them before snapshotting), so it reports zero.
func (r OverloadRow) Flow() invariants.FlowRow {
	return invariants.FlowRow{
		Label:            fmt.Sprintf("node %d", r.Node),
		WindowHighWater:  r.WindowHighWater,
		WindowInUse:      r.WindowInUse,
		Acquired:         r.Acquired,
		Released:         r.Released,
		MailboxHighWater: r.MailboxHighWater,
		NakSentHW:        r.NakSentHW,
		NakHistoryHW:     r.NakHistoryHW,
		NakBufferHW:      r.NakBufferHW,
		NakEvicted:       r.NakEvicted,
	}
}
