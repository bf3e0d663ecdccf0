// Command bench is the repo's benchmark: the cast-path ledger. One run
// brings up one workload's system in-process, measures a cast's life end to
// end (untraced) or layer by layer (traced), checks every delivery, and
// prints one JSON result as its last line of output. See README.md.
//
//	bash bench/run.sh --workload flood_loop --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh --all --runs 10 --out a.json
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// value is one metric of a result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see README.md)")
		seed    = flag.Int64("seed", 1, "drives payload bytes, the vnet world and the flip phase")
		seconds = flag.Int("seconds", 8, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		casts   = flag.Int("casts", 0, "measure a fixed number of casts instead of --seconds (exact repeats on lossy_vnet)")
		all     = flag.Bool("all", false, "run every workload --runs times as child processes and write --out")
		runs    = flag.Int("runs", 10, "with --all: runs per workload, seeds --seed..--seed+runs-1")
		outPath = flag.String("out", "", "with --all: file the collected results are written to")
		compare = flag.Bool("compare", false, "compare two --all result files: bench --compare a.json b.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: --compare a.json b.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
	case *all:
		if err := runAll(*seed, *runs, *seconds, *trace, *outPath); err != nil {
			fatal("%v", err)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		if *seconds < 1 {
			fatal("--seconds must be at least 1")
		}
		os.Exit(runOne(w, *seed, *seconds, *casts, *trace != 0))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne measures one workload and prints the report, then the result line.
// It returns the process exit code: 1 when any output was wrong.
func runOne(w workload, seed int64, seconds, casts int, traced bool) int {
	// The scheduler pool sizes itself from GOMAXPROCS, so it is pinned and
	// recorded (harness.gomaxprocs) rather than inherited.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	out, err := runWorkload(w, seed, seconds, casts, traced)
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	if traced {
		out.probes = runProbes()
		ladder(out.probes)
	}
	m := out.metrics()
	out.report(os.Stdout, m)

	want := endToEnd
	if traced {
		want = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && len(out.notes) == 0,
		Attempted: max(out.attempts, 1),
		Failed:    out.failed,
		Metrics:   make(map[string]value, len(want)),
	}
	for _, x := range want {
		res.Metrics[x.name] = value{Value: m[x.name], Unit: x.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
