package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"
)

// Golden replay: every experiment that runs on the virtual clock plane is
// required to be bit-reproducible — two runs at the same seed must produce
// byte-identical counter matrices. Each GoldenRunner below executes one
// experiment at a fixed, reduced scale and serializes its complete output
// (every counter of every row) into a canonical matrix string; the suite in
// golden_replay_test.go replays each runner several times, asserts the
// matrices are hash-identical, and pins the hashes in testdata so any
// nondeterminism (or silent behavior change) fails tier-1.

// GoldenResult is one deterministic experiment run: its canonical counter
// matrix and the matrix's SHA-256.
type GoldenResult struct {
	Name   string
	Matrix string
	Hash   string
}

// GoldenRunner executes one experiment of the golden suite.
type GoldenRunner struct {
	Name string
	Run  func(seed int64) (string, error)
}

// finish wraps a matrix into a GoldenResult.
func finish(name, matrix string) GoldenResult {
	sum := sha256.Sum256([]byte(matrix))
	return GoldenResult{Name: name, Matrix: matrix, Hash: hex.EncodeToString(sum[:])}
}

// RunGolden executes the named runner at the given seed.
func RunGolden(r GoldenRunner, seed int64) (GoldenResult, error) {
	matrix, err := r.Run(seed)
	if err != nil {
		return GoldenResult{}, err
	}
	return finish(r.Name, matrix), nil
}

// GoldenRunners returns the golden suite: the experiment families the
// virtual clock plane fully virtualizes (figure3, E5 strategies, E6 energy
// lifetime, E9 multi-group, E10 overload). Scales are reduced so three
// consecutive replays fit a tier-1 test budget; the quantities are still
// the ones the paper plots (and, for E10, the bounded-memory marks).
func GoldenRunners() []GoldenRunner {
	return []GoldenRunner{
		{Name: "figure3", Run: goldenFigure3},
		{Name: "figure3-paper", Run: goldenFigure3Paper},
		{Name: "e5-strategies", Run: goldenStrategies},
		{Name: "e6-energy", Run: goldenEnergy},
		{Name: "e9-multigroup", Run: goldenMultiGroup},
		{Name: "e10-overload", Run: goldenOverload},
		{Name: "e11-manygroups", Run: goldenManyGroups},
	}
}

func goldenFigure3(seed int64) (string, error) {
	rows, err := RunFigure3(Figure3Config{
		Sizes:    []int{2, 3, 6},
		Messages: 150,
		Timeout:  60 * time.Second,
		Seed:     seed,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "n=%d opt=%d notopt=%d optdata=%d optctl=%d relaydata=%d notoptdata=%d\n",
			r.Nodes, r.Optimized, r.NotOptimized, r.OptimizedData, r.OptimizedControl,
			r.RelayData, r.NotOptimizedData)
	}
	return b.String(), nil
}

// goldenFigure3Paper pins Figure 3 at the paper's full scale — 40 000
// messages across all four published group sizes. Under the virtual clock
// the whole sweep runs in seconds, so the exact matrix the paper plots is
// cheap enough to hold as a tier-1 golden rather than a reduced proxy.
func goldenFigure3Paper(seed int64) (string, error) {
	rows, err := RunFigure3(Figure3Config{
		Sizes:    []int{2, 3, 6, 9},
		Messages: 40000,
		Timeout:  10 * time.Minute,
		Seed:     seed,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "n=%d opt=%d notopt=%d optdata=%d optctl=%d relaydata=%d notoptdata=%d\n",
			r.Nodes, r.Optimized, r.NotOptimized, r.OptimizedData, r.OptimizedControl,
			r.RelayData, r.NotOptimizedData)
	}
	return b.String(), nil
}

func goldenStrategies(seed int64) (string, error) {
	rows, err := RunMulticastStrategies(StrategyConfig{
		Sizes:    []int{8, 16},
		Messages: 80,
		Loss:     0.05, // exercise the loss draws and the epidemic TTL paths
		Timeout:  30 * time.Second,
		Seed:     seed,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "n=%d strat=%s sender=%d maxnode=%d total=%d delivery=%.6f\n",
			r.Nodes, r.Strategy, r.SenderTx, r.MaxNodeTx, r.TotalTx, r.DeliveryRatio)
	}
	return b.String(), nil
}

func goldenEnergy(seed int64) (string, error) {
	rows, err := RunEnergyLifetime(EnergyConfig{
		Nodes:    4,
		Capacity: 0.3,
		Timeout:  30 * time.Second,
		Seed:     seed,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "mode=%s casts=%d firstdead=%d reconfigs=%d\n",
			r.Mode, r.CastsBeforeDeath, r.FirstDead, r.ReconfigurationsN)
	}
	return b.String(), nil
}

// goldenOverloadConfig is the reduced E10 scale shared by the golden
// runner and the shape test: large enough that the flood is still running
// when Mecho settles and the victim partitions, small enough for three
// tier-1 replays.
func goldenOverloadConfig(seed int64) OverloadConfig {
	return OverloadConfig{
		Messages:   450,
		SendWindow: 64,
		Timeout:    120 * time.Second,
		Seed:       seed,
	}
}

func goldenOverload(seed int64) (string, error) {
	rows, err := RunOverload(goldenOverloadConfig(seed))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "node=%d sent=%d rejected=%d delivered=%d winhw=%d inuse=%d acq=%d rel=%d mbox=%d naksent=%d nakhist=%d nakbuf=%d evicted=%d epoch=%d cfg=%s\n",
			r.Node, r.Sent, r.Rejected, r.Delivered, r.WindowHighWater, r.WindowInUse,
			r.Acquired, r.Released, r.MailboxHighWater,
			r.NakSentHW, r.NakHistoryHW, r.NakBufferHW, r.NakEvicted, r.Epoch, r.Config)
	}
	return b.String(), nil
}

// goldenManyGroups pins E11 at its full 256-group scale: the hash is the
// statement that pooled dispatch produces the same execution byte-for-byte
// at any worker count, across hundreds of concurrently hosted stacks.
func goldenManyGroups(seed int64) (string, error) {
	rows, err := RunManyGroups(ManyGroupsConfig{Seed: seed})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "group=%s config=%s epoch=%d fixed=%d mobile=%d leaked=%d winhw=%d acq=%d violations=%d\n",
			r.Group, r.Config, r.Epoch, r.DeliveredFixed, r.DeliveredMobile,
			r.Leaked, r.WindowHighWater, r.Acquired, r.Violations)
	}
	return b.String(), nil
}

func goldenMultiGroup(seed int64) (string, error) {
	rows, err := RunMultiGroup(MultiGroupConfig{
		StressMessages: 25,
		Messages:       60,
		Timeout:        60 * time.Second,
		Seed:           seed,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "group=%s config=%s epoch=%d mobiledata=%d single=%d delivered=%d leaked=%d\n",
			r.Group, r.Config, r.Epoch, r.MobileDataTx, r.SingleRunDataTx, r.Delivered, r.Leaked)
	}
	return b.String(), nil
}
