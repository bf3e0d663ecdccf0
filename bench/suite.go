package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// suiteRun is one child run recorded by --all.
type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// suiteFile is what --all writes and --compare reads.
type suiteFile struct {
	Runs []suiteRun `json:"runs"`
}

// runAll runs every workload `runs` times, one child process per run (the
// way the driver does, so no run inherits another's heap or goroutines),
// writes the collected results to outPath and prints their spread.
func runAll(seed int64, runs, seconds, trace int, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var file suiteFile
	bad := 0
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: no result line (%v): %w", w.name, s, runErr, err)
			}
			if runErr != nil || !res.Correct {
				bad++
				os.Stderr.Write(stdout)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v attempted=%d failed=%d\n", w.name, s, res.Correct, res.Attempted, res.Failed)
			file.Runs = append(file.Runs, suiteRun{Workload: w.name, Seed: s, Trace: trace, Result: res})
		}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, b, 0o644); err != nil {
			return err
		}
	}
	printSpread(os.Stdout, file)
	if bad > 0 {
		return fmt.Errorf("%d runs were incorrect", bad)
	}
	return nil
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the driver's method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// series gathers one file's values per workload and metric.
func (f suiteFile) series() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// bounds maps each end-to-end metric to its definition.
func bounds() map[string]metric {
	m := make(map[string]metric, len(endToEnd))
	for _, x := range endToEnd {
		m[x.name] = x
	}
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// printSpread prints, per workload and metric, the median and the spread of
// one file's runs, flagging spreads above a third of the metric's bound.
func printSpread(w io.Writer, f suiteFile) {
	bs := bounds()
	ser := f.series()
	for _, wl := range workloads {
		for _, name := range sortedKeys(ser[wl.name]) {
			xs := ser[wl.name][name]
			_, med, _ := quartiles(xs)
			sp := spread(xs)
			flag := ""
			if b, ok := bs[name]; ok && name != "setup_s" {
				switch {
				case sp > b.bound:
					flag = "  ABOVE BOUND"
				case sp > b.bound/3:
					flag = "  above bound/3"
				}
			}
			fmt.Fprintf(w, "%-16s %-32s median %14.4f  spread %6.2f%%  n=%d%s\n", wl.name, name, med, sp*100, len(xs), flag)
		}
	}
}

// compareFiles prints, per end-to-end metric and workload, whether file b
// is within the metric's bound of file a, worse, or unresolved (either
// file's own run-to-run spread exceeds the bound, so the comparison cannot
// tell). Per-layer metrics have no bound: their medians are listed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var files [2]suiteFile
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	bs := bounds()
	sa, sb := files[0].series(), files[1].series()
	for _, wl := range workloads {
		for _, name := range sortedKeys(sa[wl.name]) {
			xa, xb := sa[wl.name][name], sb[wl.name][name]
			if len(xb) == 0 {
				continue
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			verdict := ""
			if b, ok := bs[name]; ok {
				worse := ratio(mb-ma, ma)
				if b.better == "higher" {
					worse = -worse
				}
				switch {
				case spread(xa) > b.bound || spread(xb) > b.bound:
					verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% vs bound %.0f%%)", spread(xa)*100, spread(xb)*100, b.bound*100)
				case worse > b.bound:
					verdict = fmt.Sprintf("WORSE by %.1f%% (bound %.0f%%)", worse*100, b.bound*100)
				default:
					verdict = fmt.Sprintf("within bound (%+.1f%% worse, bound %.0f%%)", worse*100, b.bound*100)
				}
			}
			fmt.Fprintf(w, "%-16s %-32s %14.4f -> %14.4f  %s\n", wl.name, name, ma, mb, strings.TrimSpace(verdict))
		}
	}
	return nil
}
