package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// compare answers one question about two sets of result files from the
// same workloads: did side B get worse than side A by more than the
// bound BENCHMARK.json fixes for the metric? Per workload and end-to-end
// metric it prints each side's quartiles and one of
//
//	ok          B's median is within the bound of A's
//	worse       it is not, and the runs resolve the difference
//	unresolved  either side's spread (IQR / median) is wider than the
//	            bound and the two sides' ranges overlap, so the runs
//	            cannot tell a regression from noise
//
// and exits 1 if anything is worse, 0 otherwise.

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares B against A for one metric.
func judge(a, b []float64, m metricSpec) verdict {
	_, am, _ := quartiles(a)
	_, bm, _ := quartiles(b)
	worseBy := (bm - am) / am
	if m.Better == "higher" {
		worseBy = (am - bm) / am
	}
	if worseBy <= m.Bound {
		return verdictOK
	}
	aMin, aMax := minMax(a)
	bMin, bMax := minMax(b)
	overlap := aMin <= bMax && bMin <= aMax
	if overlap && (spread(a) > m.Bound || spread(b) > m.Bound) {
		return verdictUnresolved
	}
	return verdictWorse
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

func compareMain(args []string) int {
	var sides [2][]string
	side := 0
	spec := ""
	for i := 0; i < len(args); i++ {
		switch {
		case args[i] == "--":
			side++
			if side > 1 {
				fmt.Fprintln(os.Stderr, "compare: one -- between the two sets")
				return 2
			}
		case args[i] == "-spec" && i+1 < len(args):
			spec = args[i+1]
			i++
		default:
			sides[side] = append(sides[side], args[i])
		}
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	if spec == "" {
		spec = findBenchmarkFile()
	}
	if err := loadSpec(spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare: the bounds come from BENCHMARK.json:", err)
		return 2
	}
	var sets [2]map[string]map[string][]float64 // workload → metric → values
	for s := range sides {
		rs, err := loadResults(sides[s])
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
		sets[s] = map[string]map[string][]float64{}
		for _, r := range rs {
			if r.Trace {
				continue // per-layer metrics have no bound to judge by
			}
			if r.Smoke {
				fmt.Fprintf(os.Stderr, "compare: %s seed %d is a -smoke run; its numbers are not comparable\n", r.Workload, r.Seed)
				return 2
			}
			if sets[s][r.Workload] == nil {
				sets[s][r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				sets[s][r.Workload][name] = append(sets[s][r.Workload][name], v.Value)
			}
		}
	}
	exit := 0
	fmt.Printf("%-20s %-22s %5s  %-32s %-32s %6s  %s\n", "workload", "metric", "bound", "A q1/median/q3 (n)", "B q1/median/q3 (n)", "B vs A", "verdict")
	for _, w := range sortedKeys(sets[0]) {
		for _, m := range benchSpec.EndToEnd {
			a, b := sets[0][w][m.Name], sets[1][w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			v := judge(a, b, m)
			if v == verdictWorse {
				exit = 1
			}
			fmt.Printf("%-20s %-22s %4.0f%%  %-32s %-32s %+5.1f%%  %s\n", w, m.Name, 100*m.Bound,
				fmt.Sprintf("%.4g/%.4g/%.4g (%d)", a1, a2, a3, len(a)),
				fmt.Sprintf("%.4g/%.4g/%.4g (%d)", b1, b2, b3, len(b)),
				100*(b2-a2)/a2, v)
		}
	}
	return exit
}

// findBenchmarkFile looks for BENCHMARK.json in the working directory
// and its parent, which covers running from the root or from benchmark/.
func findBenchmarkFile() string {
	for _, dir := range []string{".", ".."} {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "BENCHMARK.json"
}

// loadResults reads result files for compare.
func loadResults(paths []string) ([]*result, error) {
	var out []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &result{}
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || len(r.Metrics) == 0 {
			return nil, errors.New(p + ": not a benchmark result file")
		}
		out = append(out, r)
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
