// Command incbenchdiff compares two incod-bench/v1 snapshots (the JSON
// scripts/bench.sh emits) and exits nonzero when the new run regresses
// the old one beyond a tolerance: hot-path ns/op up by more than the
// threshold, or loopback achieved-kpps down by more than it.
//
// Entries are matched by package plus benchmark name with any
// -GOMAXPROCS suffix stripped, so runs from hosts with different core
// counts still line up. Entries present on only one side are reported
// but never fail the diff — benches come and go as the repo grows.
//
// Benchmark families with /shards-N sub-benches additionally gate the
// scaling curve itself: for each shard count the speedup relative to
// the family's smallest shard count must not fall below the baseline's
// by more than the tolerance, so a change that keeps every absolute
// ns/op within tolerance but flattens the scaling curve still fails.
//
// One gate looks inside the candidate alone: the offload tier's GET hit
// may cost at most 1.25x the host handler's GET hit measured beside it
// in the same run (same host, same minute, so no tolerance applies) —
// an emulated offload that is slower than the path it offloads is not
// one.
//
//	incbenchdiff -old BENCH_5.json -new BENCH_7.json            # 15%
//	incbenchdiff -old BENCH_5.json -new ci.json -tolerance 75   # cross-host smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type benchFile struct {
	Schema     string  `json:"schema"`
	Generated  string  `json:"generated"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Benchmarks []entry `json:"benchmarks"`
}

type entry struct {
	Name       string             `json:"name"`
	Package    string             `json:"package"`
	Iterations float64            `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BPerOp     float64            `json:"b_per_op"`
	Allocs     float64            `json:"allocs_per_op"`
	Metrics    map[string]float64 `json:"metrics"`
}

// minCalibrated is the iteration floor below which a run's ns/op is
// treated as uncalibrated (BENCH_TIME=1x CI smokes time a single cold
// iteration, which is dominated by timer granularity and lazy init) and
// excluded from the gate. The fixed-count loopback kpps metrics stay
// comparable either way.
const minCalibrated = 10

// gomaxprocsSuffix is the "-N" go test appends to benchmark names when
// GOMAXPROCS != 1.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func key(e entry) string {
	name := gomaxprocsSuffix.ReplaceAllString(e.Name, "")
	if strings.HasSuffix(name, "/shards") {
		// The stripped digits were a /shards-N sub-bench's shard count,
		// not a GOMAXPROCS suffix (single-core runs append none).
		name = e.Name
	}
	return e.Package + " " + name
}

// The within-run gate: the tier's GET hit against the host's beside it.
const (
	tierGetHit    = "./internal/nictier BenchmarkNICTierKVSGetHit"
	hostGetHit    = "./internal/nictier BenchmarkNICTierKVSHostGetHit"
	maxTierVsHost = 1.25
)

// shardSuffix picks the shard count out of a normalized key; keys
// sharing the remainder form one scaling family.
var shardSuffix = regexp.MustCompile(`/shards-(\d+)$`)

func load(path string) (map[string]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != "incod-bench/v1" {
		return nil, fmt.Errorf("%s: schema %q, want incod-bench/v1", path, f.Schema)
	}
	out := make(map[string]entry, len(f.Benchmarks))
	for _, e := range f.Benchmarks {
		out[key(e)] = e
	}
	return out, nil
}

func main() {
	oldPath := flag.String("old", "", "baseline snapshot (required)")
	newPath := flag.String("new", "", "candidate snapshot (required)")
	tolerance := flag.Float64("tolerance", 15,
		"max allowed regression in percent (ns/op up, achieved-kpps down)")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	oldB, err := load(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incbenchdiff:", err)
		os.Exit(2)
	}
	newB, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incbenchdiff:", err)
		os.Exit(2)
	}

	keys := make([]string, 0, len(oldB))
	for k := range oldB {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var regressions []string
	matched := 0
	for _, k := range keys {
		o := oldB[k]
		n, ok := newB[k]
		if !ok {
			fmt.Printf("  (gone) %s\n", k)
			continue
		}
		matched++
		if o.NsPerOp > 0 && n.NsPerOp > 0 && o.Iterations >= minCalibrated && n.Iterations >= minCalibrated {
			deltaPct := (n.NsPerOp/o.NsPerOp - 1) * 100
			fmt.Printf("  %-72s ns/op %10.1f -> %10.1f  (%+6.1f%%)\n", k, o.NsPerOp, n.NsPerOp, deltaPct)
			if deltaPct > *tolerance {
				regressions = append(regressions,
					fmt.Sprintf("%s: ns/op %.1f -> %.1f (+%.1f%% > %.0f%%)", k, o.NsPerOp, n.NsPerOp, deltaPct, *tolerance))
			}
		}
		oldKpps, okO := o.Metrics["achieved-kpps"]
		newKpps, okN := n.Metrics["achieved-kpps"]
		if okO && okN && oldKpps > 0 {
			dropPct := (1 - newKpps/oldKpps) * 100
			fmt.Printf("  %-72s kpps  %10.1f -> %10.1f  (%+6.1f%%)\n", k, oldKpps, newKpps, -dropPct)
			if dropPct > *tolerance {
				regressions = append(regressions,
					fmt.Sprintf("%s: achieved-kpps %.1f -> %.1f (-%.1f%% > %.0f%%)", k, oldKpps, newKpps, dropPct, *tolerance))
			}
		}
	}
	for k := range newB {
		if _, ok := oldB[k]; !ok {
			fmt.Printf("  (new)  %s\n", k)
		}
	}

	// Scaling-curve gate: group /shards-N keys into families and compare
	// each point's speedup over the family's smallest shard count.
	type curvePoint struct {
		shards       int
		oldNs, newNs float64
	}
	families := map[string][]curvePoint{}
	for _, k := range keys {
		m := shardSuffix.FindStringSubmatch(k)
		if m == nil {
			continue
		}
		o := oldB[k]
		n, ok := newB[k]
		if !ok || o.NsPerOp <= 0 || n.NsPerOp <= 0 ||
			o.Iterations < minCalibrated || n.Iterations < minCalibrated {
			continue
		}
		shards, _ := strconv.Atoi(m[1])
		fam := strings.TrimSuffix(k, m[0])
		families[fam] = append(families[fam], curvePoint{shards, o.NsPerOp, n.NsPerOp})
	}
	famNames := make([]string, 0, len(families))
	for fam := range families {
		famNames = append(famNames, fam)
	}
	sort.Strings(famNames)
	for _, fam := range famNames {
		pts := families[fam]
		if len(pts) < 2 {
			continue
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].shards < pts[j].shards })
		base := pts[0]
		for _, p := range pts[1:] {
			oldSp := base.oldNs / p.oldNs
			newSp := base.newNs / p.newNs
			deltaPct := (newSp/oldSp - 1) * 100
			fmt.Printf("  %-72s x%d speedup %7.2f -> %7.2f  (%+6.1f%%)\n",
				fam+" [curve]", p.shards, oldSp, newSp, deltaPct)
			if -deltaPct > *tolerance {
				regressions = append(regressions,
					fmt.Sprintf("%s: %d-shard speedup %.2f -> %.2f (-%.1f%% > %.0f%%)",
						fam, p.shards, oldSp, newSp, -deltaPct, *tolerance))
			}
		}
	}
	if t, h := newB[tierGetHit], newB[hostGetHit]; t.NsPerOp > 0 && h.NsPerOp > 0 && t.Iterations >= minCalibrated && h.Iterations >= minCalibrated {
		line := fmt.Sprintf("%s: %.1f ns/op is x%.2f of %s (%.1f ns/op), max x%.2f",
			tierGetHit, t.NsPerOp, t.NsPerOp/h.NsPerOp, hostGetHit, h.NsPerOp, maxTierVsHost)
		fmt.Println("  " + line)
		if t.NsPerOp > maxTierVsHost*h.NsPerOp {
			regressions = append(regressions, line)
		}
	}
	fmt.Printf("incbenchdiff: %d matched benchmarks, tolerance %.0f%%\n", matched, *tolerance)
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "incbenchdiff: %d regression(s):\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
	fmt.Println("incbenchdiff: no regressions beyond tolerance")
}
