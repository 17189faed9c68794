// Command benchmark drives the real daemons — inckvsd, incdnsd,
// incpaxosd — open loop from CPUs the daemons do not run on, checks every
// reply, and prints end-to-end and per-layer numbers that repeat well
// enough to gate later changes on. See README.md in this directory.
//
//	bash benchmark/run.sh --workload kvs_get_host --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 1 -out DIR            # every workload, untraced then traced
//	bash benchmark/run.sh compare A*.json -- B*.json  # did B get worse than A?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"

	"incod/internal/netio"
)

// children are the processes to kill if the harness is interrupted.
var (
	childMu  sync.Mutex
	children = map[int]*os.Process{}
	tmpDirs  []string
)

func registerChild(p *os.Process) {
	childMu.Lock()
	children[p.Pid] = p
	childMu.Unlock()
}

func unregisterChild(p *os.Process) {
	childMu.Lock()
	delete(children, p.Pid)
	childMu.Unlock()
}

// cleanup kills what is still running and removes scratch directories.
func cleanup() {
	childMu.Lock()
	defer childMu.Unlock()
	for _, p := range children {
		_ = p.Kill()
	}
	for _, d := range tmpDirs {
		os.RemoveAll(d)
	}
}

func fatal(err error) {
	cleanup()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "echo":
			if err := echoMain(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "echo:", err)
				os.Exit(1)
			}
			return
		case "twin":
			if err := twinMain(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "twin:", err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		root     = flag.String("root", os.Getenv("INCOD_BENCH_ROOT"), "checkout root (default: $INCOD_BENCH_ROOT as run.sh sets it, else the parent of the working directory's benchmark/, else the working directory)")
		workload = flag.String("workload", "", "run one workload; empty runs all of them, untraced then traced")
		seed     = flag.Int64("seed", 1, "workload seed: same seed, same request bytes")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run, cut into one-second cycles of paced, flipped and saturated slices")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "directory for traces, results and failed runs' daemon logs (default <root>/.bench_build/out)")
		smoke    = flag.Bool("smoke", false, "three cycles instead of -seconds of them: a wiring check, numbers not comparable")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (subcommands compare and twin come first)", flag.Arg(0)))
	}

	cfg, err := newRunConfig(*root, *out)
	if err != nil {
		fatal(err)
	}
	cfg.seed, cfg.seconds, cfg.smoke = *seed, *seconds, *smoke

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	if err := buildDaemons(cfg.root, cfg.binDir); err != nil {
		fatal(err)
	}
	printEnvironment(cfg)

	var todo []*workloadSpec
	if *workload == "" {
		todo = workloads
	} else {
		w, err := workloadByName(*workload)
		if err != nil {
			fatal(err)
		}
		todo = []*workloadSpec{w}
	}
	traces := []bool{*trace == 1}
	if *workload == "" {
		traces = []bool{false, true}
	}
	var last *result
	all := map[string]*result{}
	for _, traced := range traces {
		for _, w := range todo {
			var r *result
			if traced {
				r, err = cfg.runTraced(w)
			} else {
				r, err = cfg.runUntraced(w)
			}
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			if err := r.complete(); err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			printResult(r)
			if err := saveResult(cfg.outDir, r); err != nil {
				fatal(err)
			}
			last = r
			all[fmt.Sprintf("%s/trace%d", w.Name, b2i(traced))] = r
		}
	}
	cleanup()
	if *workload != "" {
		emitDriverLine(last)
		return
	}
	b, _ := json.Marshal(all)
	fmt.Println(string(b))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// newRunConfig locates the checkout, splits the CPUs and prepares the
// output and scratch directories.
func newRunConfig(root, out string) (*runConfig, error) {
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		root = wd
		if filepath.Base(wd) == "benchmark" {
			root = filepath.Dir(wd)
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "inckvsd")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root (no cmd/inckvsd): %w", root, err)
	}
	if err := loadSpec(filepath.Join(root, "BENCHMARK.json")); err != nil {
		return nil, err
	}
	cfg := &runConfig{root: root, binDir: filepath.Join(root, ".bench_build", "bin")}
	if cfg.self, err = os.Executable(); err != nil {
		return nil, err
	}
	cfg.outDir = out
	if out == "" {
		cfg.outDir = filepath.Join(root, ".bench_build", "out")
	}
	if cfg.outDir, err = filepath.Abs(cfg.outDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	if cfg.tmpDir, err = os.MkdirTemp(scratch, "run-"); err != nil {
		return nil, err
	}
	tmpDirs = append(tmpDirs, cfg.tmpDir)

	// The server gets the first S = max(1, nproc/2) allowed CPUs, the
	// generator the rest, and the two never share one: numbers taken with
	// the generator on the server's core are not published.
	cpus, err := allowedCPUs("self")
	if err != nil {
		return nil, err
	}
	if len(cpus) < 2 {
		return nil, fmt.Errorf("pinned:false — %d CPU allowed; the server and the generator need disjoint CPUs", len(cpus))
	}
	s := max(1, len(cpus)/2)
	cfg.serverCPUs, cfg.genCPUs = cpus[:s], cpus[s:]
	if err := confineProcess(cfg.genCPUs); err != nil {
		return nil, fmt.Errorf("pinned:false — cannot confine the generator to %v: %w", cfg.genCPUs, err)
	}
	// One spinning loop per generator CPU, plus room for the control
	// goroutines (HTTP, flips) to be scheduled beside them.
	runtime.GOMAXPROCS(len(cfg.genCPUs) + 2)
	cfg.gso = netio.ProbeGSO() == nil
	return cfg, nil
}

func printEnvironment(c *runConfig) {
	var un syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&un) == nil {
		var b []byte
		for _, ch := range un.Release {
			if ch == 0 {
				break
			}
			b = append(b, byte(ch))
		}
		kernel = string(b)
	}
	fmt.Printf("# incod benchmark: loopback only (127.0.0.1), nproc=%d, server CPUs S=%d %v, generator CPUs %v (%d connection(s)), kernel %s, %s, UDP_SEGMENT=%v\n",
		len(c.serverCPUs)+len(c.genCPUs), len(c.serverCPUs), c.serverCPUs, c.genCPUs, len(c.genCPUs),
		kernel, runtime.Version(), c.gso)
	if c.smoke {
		fmt.Println("# -smoke: three cycles; these numbers are a wiring check and NOT comparable with any other run")
	}
}

func printResult(r *result) {
	kind := "untraced: end-to-end metrics"
	if r.Trace {
		kind = "traced: per-layer metrics"
	}
	fmt.Printf("== %s seed %d (%s)\n", r.Workload, r.Seed, kind)
	vals, units := map[string]float64{}, map[string]string{}
	for n, m := range r.Metrics {
		vals[n], units[n] = m.Value, m.Unit
	}
	printMetrics("metrics", vals, units)
	if len(r.Diag) > 0 {
		printMetrics("diagnostics (ungated)", r.Diag, map[string]string{})
	}
	fmt.Printf("  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Printf("  NOTE %s\n", n)
	}
}

func saveResult(dir string, r *result) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", r.Workload, r.Seed, b2i(r.Trace))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// emitDriverLine prints the last line of standard output: exactly the
// four keys the driver reads.
func emitDriverLine(r *result) {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}
