package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"
)

type protoKind uint8

const (
	protoKVS protoKind = iota
	protoDNS
	protoPaxos
	protoEcho // the harness's own reference server, see echo.go
)

// workloadSpec is one row of the workload table in README.md: which
// daemon, on which transport rung and placement, under which traffic.
// Why each was chosen is in BENCHMARK.json and the README.
type workloadSpec struct {
	Name string

	Proto   protoKind
	Daemon  string // binary under cmd/
	Service string // name on the /v1 control API

	// Batched starts the daemon with -sockets S -pin (per-shard
	// SO_REUSEPORT sockets); false keeps the daemon's default
	// single-reader engine. Engine and GSOTx pick the rung within
	// batched mode. Backend is what /v1/dataplane must then report — a
	// daemon that degraded to another rung is running another workload.
	Batched bool
	Engine  string
	GSOTx   bool
	Backend string
	Tier    bool // -nictier: placement shifts move real state

	// Measure is the placement pinned while latency, CPU, memory and
	// capacity are taken; the flips go away from it and back.
	Measure string

	GetFrac float64 // KVS: share of GETs
	ETC     bool    // KVS: ETC value sizes instead of fixed 64 B
	Train   int     // requests per UDP_SEGMENT train; 0 = one datagram per send
}

const (
	pacedKpps = 40

	// setup_s is the median of a run's set-ups: three, and up to maxBoots
	// where they are cheap enough that more fit in bootBudget.
	maxBoots   = 9
	bootBudget = 2 * time.Second
)

var workloads = []*workloadSpec{
	{
		Name:  "kvs_get_host",
		Proto: protoKVS, Daemon: "inckvsd", Service: "kvs",
		Batched: true, Backend: "mmsg", Measure: "host", GetFrac: 1,
	},
	{
		Name:  "kvs_mixed_tier",
		Proto: protoKVS, Daemon: "inckvsd", Service: "kvs",
		Batched: true, Backend: "mmsg", Tier: true, Measure: "network", GetFrac: 0.8, ETC: true,
	},
	{
		Name:  "kvs_shift",
		Proto: protoKVS, Daemon: "inckvsd", Service: "kvs",
		Batched: true, Backend: "mmsg", Tier: true, Measure: "host", GetFrac: 0.9, ETC: true,
	},
	{
		Name:  "dns_train_uring",
		Proto: protoDNS, Daemon: "incdnsd", Service: "dns",
		Batched: true, Engine: "uring", GSOTx: true, Backend: "uring", Measure: "host", Train: 32,
	},
	{
		Name:  "paxos_vote_default",
		Proto: protoPaxos, Daemon: "incpaxosd", Service: "paxos",
		Measure: "host",
	},
}

func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// argv is the daemon's command line for this workload on s server CPUs.
func (w *workloadSpec) argv(bin string, s, udpPort, ctrlPort int, zonePath string) []string {
	a := []string{bin,
		"-addr", "127.0.0.1:" + strconv.Itoa(udpPort),
		"-ctrl", "127.0.0.1:" + strconv.Itoa(ctrlPort),
	}
	if w.Batched {
		a = append(a, "-sockets", strconv.Itoa(s), "-pin")
	}
	if w.Engine != "" {
		a = append(a, "-engine", w.Engine)
	}
	if w.GSOTx {
		a = append(a, "-gsotx")
	}
	if w.Tier {
		a = append(a, "-nictier")
	}
	switch w.Proto {
	case protoDNS:
		a = append(a, "-zone", zonePath)
	case protoPaxos:
		a = append(a, "-role", "acceptor")
	}
	return a
}

// writeZone generates the DNS zone the generator's names resolve in.
func writeZone(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for i := uint64(0); i < dnsNames; i++ {
		a := dnsAddr(i)
		fmt.Fprintf(f, "%s %d.%d.%d.%d 300\n", dnsName(i, true), a[0], a[1], a[2], a[3])
	}
	return f.Close()
}

// --- metric names ------------------------------------------------------------

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json, the one place a metric's name, unit,
// direction and bound are written down. The harness loads it at start and
// refuses to report a metric it does not list, or to finish a run that
// lacks one it does.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var benchSpec benchmarkFile

func loadSpec(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	benchSpec = benchmarkFile{}
	if err := json.Unmarshal(b, &benchSpec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// metricsFor lists the metrics a run of the given kind reports: every
// end-to-end metric untraced, every per-layer metric traced.
func metricsFor(traced bool) []metricSpec {
	if traced {
		return benchSpec.PerLayer
	}
	return benchSpec.EndToEnd
}
