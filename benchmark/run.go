package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"incod/internal/dataplane"
)

// runConfig is everything one workload run needs besides the workload.
type runConfig struct {
	root   string // checkout root
	binDir string // built daemons
	outDir string // traces, results, daemon logs of failed runs
	tmpDir string // scratch removed on exit
	self   string // this binary, re-executed as the traced twin

	seed    int64
	seconds float64
	smoke   bool

	serverCPUs []int
	genCPUs    []int
	gso        bool
}

// phases is the shape of a run. The measured seconds are cut into
// cycles of about cycleSeconds, and every cycle holds one slice of each
// kind: the daemon paced, the echo paced, the daemon paced with placement
// flips, the daemon saturated, the echo saturated. The host's slow spells
// last seconds; with the kinds interleaved a spell lands on a slice or
// two of every kind instead of on the whole of one, the figure reported
// for a kind is the median over its slices, and a daemon slice is always
// within a second or so of the echo slice it is divided by. -smoke runs
// two short cycles as a wiring check.
type phases struct {
	warm   time.Duration
	cycles int
	// Per cycle.
	paced, echoPaced, shift, saturate, echoSat time.Duration
}

const (
	cycleSeconds = 1.0
	shiftEvery   = 4
	satTurns     = 3
)

func (c *runConfig) phases() phases {
	secs := c.seconds
	if c.smoke {
		secs = 3
	}
	n := max(1, int(secs/cycleSeconds+0.5))
	per := secs / float64(n)
	d := func(share float64) time.Duration {
		return time.Duration(per * share * float64(time.Second))
	}
	return phases{warm: 500 * time.Millisecond, cycles: n,
		paced: d(0.28), echoPaced: d(0.14), shift: d(0.125), saturate: d(0.27), echoSat: d(0.185)}
}

// result is one run's outcome in the shape the driver reads.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Smoke     bool                   `json:"smoke,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
	Diag      map[string]float64     `json:"diagnostics,omitempty"`
	Series    map[string][]float64   `json:"per_second,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64) {
	for _, m := range metricsFor(r.Trace) {
		if m.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in BENCHMARK.json")
}

// count adds a server's measured slices to the run's totals. correct is
// about what the replies said: it goes false on a wrong, undecodable or
// unexpected reply, never on timing alone — a late or missing reply is in
// failed.
func (r *result) count(m *measured) {
	for _, p := range m.ran() {
		r.Attempted += p.sent
		r.Failed += p.failed()
		if p.fails[failWrong]+p.fails[failUndecoded]+p.fails[failUnexpected] > 0 {
			r.Correct = false
		}
	}
}

// complete checks the run reports exactly the metrics BENCHMARK.json
// promises for its kind: every end-to-end metric untraced, every
// per-layer metric traced.
func (r *result) complete() error {
	specs := metricsFor(r.Trace)
	for _, m := range specs {
		if _, ok := r.Metrics[m.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
	}
	if len(r.Metrics) != len(specs) {
		return fmt.Errorf("%d metrics measured, BENCHMARK.json lists %d", len(r.Metrics), len(specs))
	}
	return nil
}

func (r *result) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// live is one booted, preloaded, pinned daemon with its generator.
type live struct {
	srv     *server
	gen     *generator
	setup   time.Duration // exec → ready for the first measured request
	pinWall time.Duration
	logPath string
	traced  bool // the decorated twin: slice boundaries are signalled to it
	closed  bool
}

// mark tells a decorated twin that a cycle's next boundary is reached, so
// its spans carry the kind of slice they fell in (see sliceKind). A real
// daemon is never signalled.
func (l *live) mark() {
	if l.traced {
		_ = l.srv.cmd.Process.Signal(syscall.SIGUSR1)
	}
}

// abandon is the failure-path teardown; calling it after close is harmless.
func (l *live) abandon() {
	if l == nil || l.closed {
		return
	}
	l.closed = true
	l.gen.Close()
	l.srv.kill()
}

func (l *live) close(keepLog bool) error {
	l.closed = true
	l.gen.Close()
	err := l.srv.stop()
	if err == nil && !keepLog {
		os.Remove(l.logPath)
	}
	return err
}

// setUp execs the workload's daemon (or, with twin set, this binary as
// its traced twin), waits for health, loads its state, pins the
// measured placement and checks the daemon is the one the workload
// declares: right rung, shard workers pinned, trains on.
func (c *runConfig) setUp(w *workloadSpec, boot int, twin string) (*live, error) {
	udpPort, err := freePort("udp4")
	if err != nil {
		return nil, err
	}
	ctrlPort, err := freePort("tcp4")
	if err != nil {
		return nil, err
	}
	zone := filepath.Join(c.tmpDir, "zone.txt")
	if w.Proto == protoDNS {
		if _, err := os.Stat(zone); err != nil {
			if err := writeZone(zone); err != nil {
				return nil, err
			}
		}
	}
	argv := w.argv(filepath.Join(c.binDir, w.Daemon), len(c.serverCPUs), udpPort, ctrlPort, zone)
	if twin != "" {
		argv = append([]string{c.self, "twin", "-workload", w.Name, "-decorate", twin,
			"-trace-out", filepath.Join(c.outDir, "trace-"+w.Name+".json")}, argv[1:]...)
	}
	logPath := filepath.Join(c.outDir, fmt.Sprintf("daemon-%s-%d%s.log", w.Name, boot, twin))
	srv, err := startServer(w, argv, udpPort, ctrlPort, c.serverCPUs, c.genCPUs, logPath)
	if err != nil {
		return nil, fmt.Errorf("%w (daemon log: %s)", err, logPath)
	}
	l := &live{srv: srv, logPath: logPath, traced: twin == "on"}
	fail := func(err error) (*live, error) {
		if l.gen != nil {
			l.gen.Close()
		}
		srv.kill()
		return nil, fmt.Errorf("%w (daemon log: %s)", err, logPath)
	}
	if l.gen, err = newGenerator(w, srv.addr, c.seed, c.genCPUs, c.gso); err != nil {
		return fail(err)
	}
	if w.Proto == protoKVS {
		if err := l.gen.preload(); err != nil {
			return fail(err)
		}
	}
	if l.pinWall, _, err = srv.pin(w.Measure); err != nil {
		return fail(err)
	}
	l.setup = time.Since(srv.started)
	st, _, err := srv.snapshot()
	if err != nil {
		return fail(err)
	}
	if err := w.checkRung(st); err != nil {
		return fail(err)
	}
	return l, nil
}

// startEcho execs this binary as the reference echo server on the server
// CPU set, with its own generator. It is the harness's, not the
// program's: its start is no part of setup_s.
func (c *runConfig) startEcho(w *workloadSpec) (*live, error) {
	udpPort, err := freePort("udp4")
	if err != nil {
		return nil, err
	}
	ctrlPort, err := freePort("tcp4")
	if err != nil {
		return nil, err
	}
	spec := echoSpec(w)
	argv := []string{c.self, "echo", "-addr", "127.0.0.1:" + strconv.Itoa(udpPort), "-ctrl", "127.0.0.1:" + strconv.Itoa(ctrlPort)}
	logPath := filepath.Join(c.outDir, "echo-"+w.Name+".log")
	srv, err := startServer(spec, argv, udpPort, ctrlPort, c.serverCPUs, c.genCPUs, logPath)
	if err != nil {
		return nil, err
	}
	gen, err := newGenerator(spec, srv.addr, c.seed, c.genCPUs, c.gso)
	if err != nil {
		srv.kill()
		return nil, err
	}
	return &live{srv: srv, gen: gen, logPath: logPath}, nil
}

// checkRung refuses a daemon that is not serving the way the workload
// says: a degraded rung or unpinned workers is a different workload, and
// its numbers must not be published under this one's name.
func (w *workloadSpec) checkRung(st dataplane.Stats) error {
	if st.Backend != w.Backend {
		return fmt.Errorf("daemon serves on backend %q, workload %s declares %q", st.Backend, w.Name, w.Backend)
	}
	if w.Batched && !st.Pinned {
		return fmt.Errorf("daemon reports pinned:false: shard workers are not bound to the server CPUs")
	}
	if w.GSOTx && !st.GSOTx {
		return fmt.Errorf("daemon reports gso_tx:false, workload %s needs reply trains", w.Name)
	}
	return nil
}

// flip is one placement change made during a run.
type flip struct {
	up         bool
	start, end int64 // generator clock
	wall       time.Duration
	inner      time.Duration // the orchestrator's own last_shift_duration
}

// flipper alternates the placement each times per direction, evenly over
// [start, start+span) on the generator clock, beginning away from the
// measured placement so the run ends where it started.
func flipper(l *live, w *workloadSpec, start int64, span time.Duration, each int) ([]flip, error) {
	n := 2 * each
	away := "network"
	if w.Measure == "network" {
		away = "host"
	}
	var flips []flip
	for i := 0; i < n; i++ {
		at := start + int64(float64(span)*(float64(i)+0.5)/float64(n))
		if d := at - l.gen.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		to := away
		if i%2 == 1 {
			to = w.Measure
		}
		f := flip{up: to == "network", start: l.gen.now()}
		var err error
		if f.wall, f.inner, err = l.srv.pin(to); err != nil {
			return flips, err
		}
		f.end = l.gen.now()
		flips = append(flips, f)
	}
	return flips, nil
}

// flipsFor is how many flips per direction fit in a flip slice of dur. A
// real tier shift takes a tenth of a second and more of the server's one
// CPU; closer than half a second apart they would keep it shifting for
// most of the slice, which no deployment does. An advisory flip costs the
// server microseconds, and the figure taken from it is an HTTP round trip
// whose median needs many samples: those workloads flip every 50 ms.
func flipsFor(w *workloadSpec, dur time.Duration) int {
	if w.Tier {
		return max(1, int(dur/(500*time.Millisecond)))
	}
	return max(1, int(dur/(50*time.Millisecond))/2)
}

// pacedWithFlips runs a paced slice with the flipper beside it.
func pacedWithFlips(l *live, w *workloadSpec, dur time.Duration) (*phaseResult, []flip, error) {
	each := flipsFor(w, dur)
	var (
		wg    sync.WaitGroup
		flips []flip
		ferr  error
	)
	start := l.gen.now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		flips, ferr = flipper(l, w, start, dur, each)
	}()
	res, err := l.gen.paced(pacedKpps*1000, dur, w.Train)
	wg.Wait()
	if err == nil {
		err = ferr
	}
	return res, flips, err
}

const flipWindow = 250 * time.Millisecond

// lateFlagUs is the paced slices' p99 lateness above which a run is flagged
// as not having held its schedule: twenty 25 µs slots. The issue proposed
// 100 µs; on the reference host a send that has to wake the server's idle
// vCPU takes that long by itself often enough that p99 lateness sits
// between 60 and 300 µs on undisturbed runs, while the median stays under
// 2 µs, so 100 µs flagged four runs in ten for nothing.
const lateFlagUs = 500

// shiftFailures counts failures of requests due within flipWindow of a
// flip, and estimates how many requests were due in those windows.
func shiftFailures(res *phaseResult, flips []flip) (failed uint64, due float64) {
	in := func(t int64) bool {
		for _, f := range flips {
			if t >= f.start-int64(flipWindow) && t <= f.end+int64(flipWindow) {
				return true
			}
		}
		return false
	}
	for _, due := range res.failLog {
		if in(due) {
			failed++
		}
	}
	// The schedule is uniform, so the requests due inside the windows are
	// the windows' covered share of the slice times its request count.
	const step = int64(time.Millisecond)
	var covered, total int64
	for t := res.start; t < res.end; t += step {
		total++
		if in(t) {
			covered++
		}
	}
	if total > 0 {
		due = float64(res.sent) * float64(covered) / float64(total)
	}
	return failed, due
}

func flipMs(flips []flip, up bool) []float64 {
	var vs []float64
	for _, f := range flips {
		if f.up == up {
			vs = append(vs, float64(f.wall)/1e6)
		}
	}
	return vs
}

func medianMs(flips []flip, up bool, pick func(flip) time.Duration) float64 {
	var vs []float64
	for _, f := range flips {
		if f.up == up {
			vs = append(vs, float64(pick(f))/1e6)
		}
	}
	return median(vs)
}

// cycle is what one cycle's slices measured: the daemon's figures and
// the echo's from the same second.
type cycle struct {
	p50Us, p99Us, cpuUs, kpps      float64 // daemon: paced latency, paced CPU per reply, saturate rate
	echoP50Us, echoCPUUs, echoKpps float64
}

// measured is everything one daemon's measured slices produced, shared
// by the untraced run and the traced run's three servers.
type measured struct {
	cycles []cycle
	// The slices of each kind merged: request counts, failures and every
	// latency sample, for the totals and the generator's diagnostics.
	paced, shift, sat *phaseResult
	flips             []flip
	shiftFailed       uint64  // failures among requests due within flipWindow of a flip
	shiftDue          float64 // requests due in those windows
	echoFailed        uint64
	cpuUsPerReq       float64 // paced: server CPU per correct reply, median over the cycles
	genCPUUsPerReq    float64 // saturate: generator busy time per correct reply
	satSrvCPUUsPerReq float64 // saturate: server CPU per correct reply
	satSrvBusy        float64 // saturate: share of the server CPU set's time the daemon ran
	rssMB             float64
	beforePaced       dataplane.Stats // either side of the first paced slice
	afterPaced        dataplane.Stats
	afterAll          dataplane.Stats
	snapshotUs        float64
	genSent, genRecv  uint64 // generator lifetime datagrams, for the reconcile
}

// ran lists the kinds of slice that ran.
func (m *measured) ran() []*phaseResult {
	var out []*phaseResult
	for _, p := range []*phaseResult{m.paced, m.shift, m.sat} {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// series picks one figure out of every cycle.
func (m *measured) series(pick func(cycle) float64) []float64 {
	out := make([]float64, len(m.cycles))
	for i, cy := range m.cycles {
		out[i] = pick(cy)
	}
	return out
}

// overEcho is the median over the cycles of the daemon's figure as a
// multiple of the echo's from the same cycle.
func (m *measured) overEcho(daemon, echo func(cycle) float64) float64 {
	var rs []float64
	for _, cy := range m.cycles {
		if e := echo(cy); e > 0 {
			rs = append(rs, daemon(cy)/e)
		}
	}
	return median(rs)
}

// pacedSlice drives one paced slice against l and returns it with the
// server's CPU time per correct reply across it.
func pacedSlice(l *live, w *workloadSpec, dur time.Duration, flips bool) (*phaseResult, []flip, float64, error) {
	c0, err := l.srv.cpuNs()
	if err != nil {
		return nil, nil, 0, err
	}
	var res *phaseResult
	var fl []flip
	if flips {
		res, fl, err = pacedWithFlips(l, w, dur)
	} else {
		res, err = l.gen.paced(pacedKpps*1000, dur, w.Train)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	c1, err := l.srv.cpuNs()
	if err != nil {
		return nil, nil, 0, err
	}
	return res, fl, float64(c1-c0) / 1e3 / float64(max(res.correct, 1)), nil
}

// satSlice drives one closed-loop slice and returns it with the server's
// CPU time and the wall time across it.
func satSlice(l *live, w *workloadSpec, dur time.Duration) (*phaseResult, int64, time.Duration, error) {
	s0, err := l.srv.cpuNs()
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	res, err := l.gen.saturate(dur, w.Train)
	if err != nil {
		return nil, 0, 0, err
	}
	wall := time.Since(t0)
	s1, err := l.srv.cpuNs()
	return res, s1 - s0, wall, err
}

// measure drives the cycles against a live daemon and the echo beside
// it. midRun, if not nil, is called once half-way through, between two
// cycles, while both stand idle.
func (c *runConfig) measure(l, echo *live, w *workloadSpec, ph phases, midRun func() error) (*measured, error) {
	m := &measured{paced: &phaseResult{}}
	if _, err := l.gen.paced(pacedKpps*1000, ph.warm, w.Train); err != nil {
		return nil, err
	}
	if _, err := echo.gen.paced(pacedKpps*1000, ph.warm/2, w.Train); err != nil {
		return nil, fmt.Errorf("echo: %w", err)
	}
	// A collection during a slice would only steal the generator's CPU:
	// collect now, then hold the GC off. A run's samples are a few tens
	// of megabytes.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var satCPUNs int64
	var satWall time.Duration
	for cyc := 0; cyc < ph.cycles; cyc++ {
		var cy cycle
		var err error
		if cyc == 0 {
			if m.beforePaced, _, err = l.srv.snapshot(); err != nil {
				return nil, err
			}
		}
		l.mark() // epoch 1: paced
		res, _, cpuUs, err := pacedSlice(l, w, ph.paced, false)
		if err != nil {
			return nil, err
		}
		lat := sortedCopy(res.latUs)
		cy.p50Us, cy.p99Us, cy.cpuUs = percentile(lat, 50), percentile(lat, 99), cpuUs
		m.paced.merge(res)
		if cyc == 0 {
			// Memory is read after fixed work — preload, warm-up, one
			// paced slice — so that it is the same work on every run.
			if m.rssMB, err = l.srv.rssMB(); err != nil {
				return nil, err
			}
			var snap time.Duration
			if m.afterPaced, snap, err = l.srv.snapshot(); err != nil {
				return nil, err
			}
			m.snapshotUs = float64(snap) / 1e3
		}
		eres, _, ecpuUs, err := pacedSlice(echo, w, ph.echoPaced, false)
		if err != nil {
			return nil, fmt.Errorf("echo: %w", err)
		}
		cy.echoP50Us, cy.echoCPUUs = median(eres.latUs), ecpuUs
		m.echoFailed += eres.failed()
		// A flip of a real tier is a tenth of a second and more of the
		// server's one CPU, so the flips get a slice of shiftEvery times
		// the length every shiftEvery-th cycle rather than one too short
		// for them every cycle.
		if ph.shift > 0 && (cyc%shiftEvery == shiftEvery-1 || ph.cycles < shiftEvery && cyc == ph.cycles-1) {
			res, flips, _, err := pacedSlice(l, w, shiftEvery*ph.shift, true)
			if err != nil {
				return nil, err
			}
			if m.shift == nil {
				m.shift = &phaseResult{}
			}
			m.shift.merge(res)
			m.addFlips(res, flips)
		}
		if ph.saturate > 0 {
			l.mark() // epoch 2: saturate
			// The closed loop is where the host's mood shows most, and it
			// can turn within a second: the daemon's and the echo's turns
			// alternate a tenth of a second at a time.
			var dOK, eOK uint64
			for k := 0; k < satTurns; k++ {
				res, cpuNs, wall, err := satSlice(l, w, ph.saturate/satTurns)
				if err != nil {
					return nil, err
				}
				dOK += res.correct
				satCPUNs += cpuNs
				satWall += wall
				if m.sat == nil {
					m.sat = &phaseResult{}
				}
				m.sat.merge(res)
				eres, _, _, err := satSlice(echo, w, ph.echoSat/satTurns)
				if err != nil {
					return nil, fmt.Errorf("echo: %w", err)
				}
				eOK += eres.correct
				m.echoFailed += eres.failed()
			}
			cy.kpps = float64(dOK) / ph.saturate.Seconds() / 1e3
			cy.echoKpps = float64(eOK) / ph.echoSat.Seconds() / 1e3
		}
		l.mark() // epoch 3: done
		m.cycles = append(m.cycles, cy)
		if midRun != nil && cyc == ph.cycles/2 {
			if err := midRun(); err != nil {
				return nil, err
			}
		}
	}
	m.cpuUsPerReq = median(m.series(func(c cycle) float64 { return c.cpuUs }))
	if m.sat != nil && m.sat.correct > 0 {
		m.genCPUUsPerReq = float64(m.sat.busyNs) / 1e3 / float64(m.sat.correct)
		m.satSrvCPUUsPerReq = float64(satCPUNs) / 1e3 / float64(m.sat.correct)
		m.satSrvBusy = float64(satCPUNs) / float64(satWall) / float64(len(c.serverCPUs))
	}
	if err := l.srv.alive(); err != nil {
		return nil, err
	}
	if err := echo.srv.alive(); err != nil {
		return nil, fmt.Errorf("echo: %w", err)
	}
	var err error
	if m.afterAll, _, err = l.srv.snapshot(); err != nil {
		return nil, err
	}
	for _, g := range l.gen.conns {
		m.genSent += g.lifeSent
		m.genRecv += g.lifeRecv
	}
	return m, nil
}

// addFlips records a slice's flips and its failures near them.
func (m *measured) addFlips(res *phaseResult, flips []flip) {
	failed, due := shiftFailures(res, flips)
	m.shiftFailed += failed
	m.shiftDue += due
	m.flips = append(m.flips, flips...)
}

// runUntraced is the run the end-to-end metrics come from: tracing off,
// the real daemon with the echo beside it, every kind of slice.
func (c *runConfig) runUntraced(w *workloadSpec) (*result, error) {
	r := &result{Workload: w.Name, Seed: c.seed, Smoke: c.smoke, Correct: true,
		Metrics: map[string]metricValue{}, Diag: map[string]float64{}}
	ph := c.phases()

	echo, err := c.startEcho(w)
	if err != nil {
		return nil, fmt.Errorf("echo: %w", err)
	}
	defer echo.abandon()

	// Set-up is taken at three moments of the run — before the cycles,
	// half-way through them, after them — and reported as the median, so
	// that a slow spell of the host covers a part of the set-ups, not all.
	// The first daemon set up is the one measured; the later ones are set
	// up beside it while it stands idle, and stopped again. A set-up that
	// takes milliseconds (no preload) is repeated at each of the later
	// moments, up to maxBoots in all while bootBudget lasts.
	var setups []float64
	l, err := c.setUp(w, 0, "")
	if err != nil {
		return nil, err
	}
	defer l.abandon()
	setups = append(setups, l.setup.Seconds())
	setUpAgain := func() error {
		began := time.Now()
		fits := func(i int) bool { // another one like the i so far ends inside this moment's half of the budget
			spent := time.Since(began)
			return spent+spent/time.Duration(i) <= bootBudget/2
		}
		for i := 0; i < (maxBoots-1)/2 && (i == 0 || fits(i)); i++ {
			extra, err := c.setUp(w, len(setups), "")
			if err != nil {
				return err
			}
			setups = append(setups, extra.setup.Seconds())
			if err := extra.close(false); err != nil {
				return err
			}
		}
		return nil
	}
	m, err := c.measure(l, echo, w, ph, setUpAgain)
	if err != nil {
		return nil, fmt.Errorf("%w (daemon log: %s)", err, l.logPath)
	}
	if err := l.close(false); err != nil {
		return nil, fmt.Errorf("%w (daemon log: %s)", err, l.logPath)
	}
	if err := echo.close(false); err != nil {
		return nil, fmt.Errorf("echo: %w", err)
	}
	if err := setUpAgain(); err != nil {
		return nil, err
	}

	r.set("setup_s", median(setups))
	r.set("capacity_vs_echo", m.overEcho(func(c cycle) float64 { return c.kpps }, func(c cycle) float64 { return c.echoKpps }))
	r.set("p50_vs_echo", m.overEcho(func(c cycle) float64 { return c.p50Us }, func(c cycle) float64 { return c.echoP50Us }))
	r.set("server_cpu_vs_echo", m.overEcho(func(c cycle) float64 { return c.cpuUs }, func(c cycle) float64 { return c.echoCPUUs }))
	r.set("rss_mb", m.rssMB)

	r.count(m)
	c.diagnose(r, w, m)
	r.Series = map[string][]float64{
		"setup_s":               setups,
		"p50_us":                m.series(func(c cycle) float64 { return c.p50Us }),
		"echo_p50_us":           m.series(func(c cycle) float64 { return c.echoP50Us }),
		"server_cpu_us_per_req": m.series(func(c cycle) float64 { return c.cpuUs }),
		"echo_cpu_us_per_req":   m.series(func(c cycle) float64 { return c.echoCPUUs }),
		"capacity_kpps":         m.series(func(c cycle) float64 { return c.kpps }),
		"echo_capacity_kpps":    m.series(func(c cycle) float64 { return c.echoKpps }),
		"flip_up_ms":            flipMs(m.flips, true),
		"flip_down_ms":          flipMs(m.flips, false),
	}
	return r, nil
}

// diagnose fills the ungated generator-side figures and flags a run that
// measured the generator instead of the server.
func (c *runConfig) diagnose(r *result, w *workloadSpec, m *measured) {
	lat := sortedCopy(m.paced.latUs)
	late := sortedCopy(m.paced.lateUs)
	d := r.Diag
	d["loadgen.samples"] = float64(len(lat))
	d["loadgen.p99_us"] = percentile(lat, 99)
	d["loadgen.p999_us"] = percentile(lat, 99.9)
	d["loadgen.seg_p99_us"] = median(m.series(func(c cycle) float64 { return c.p99Us }))
	d["loadgen.late_p50_us"] = percentile(late, 50)
	d["loadgen.late_p99_us"] = percentile(late, 99)
	if len(late) > 0 {
		d["loadgen.late_max_us"] = late[len(late)-1]
	}
	d["loadgen.cpu_us_per_req"] = m.genCPUUsPerReq
	d["loadgen.sat_server_cpu_us_per_req"] = m.satSrvCPUUsPerReq
	if m.sat != nil {
		d["loadgen.sat_p50_us"] = percentile(sortedCopy(m.sat.latUs), 50)
	}
	if m.shift != nil {
		if m.shiftDue > 0 {
			d["loadgen.shift_fail_pct"] = 100 * float64(m.shiftFailed) / m.shiftDue
		}
		d["loadgen.shift_window_requests"] = m.shiftDue
		d["daemon.pin_overhead_ms"] = median(flipOverheadsMs(m.flips))
		d["daemon.shift_up_ms"] = medianMs(m.flips, true, func(f flip) time.Duration { return f.wall })
		d["daemon.shift_down_ms"] = medianMs(m.flips, false, func(f flip) time.Duration { return f.wall })
		d["loadgen.flips"] = float64(len(m.flips))
	}
	// The absolute figures behind the gated ratios: what this host gave at
	// this moment, not comparable across hosts or across its moods.
	d["loadgen.capacity_kpps"] = median(m.series(func(c cycle) float64 { return c.kpps }))
	d["loadgen.p50_us"] = median(m.series(func(c cycle) float64 { return c.p50Us }))
	d["loadgen.server_cpu_us_per_req"] = m.cpuUsPerReq
	d["echo.capacity_kpps"] = median(m.series(func(c cycle) float64 { return c.echoKpps }))
	d["echo.p50_us"] = median(m.series(func(c cycle) float64 { return c.echoP50Us }))
	d["echo.cpu_us_per_req"] = median(m.series(func(c cycle) float64 { return c.echoCPUUs }))
	if m.echoFailed > 0 {
		r.note("echo: %d requests to the reference server failed; the ratios of this run are suspect", m.echoFailed)
	}
	d["loadgen.p50_all_us"] = percentile(lat, 50)
	d["loadgen.paced_fail_pct"] = 100 * float64(m.paced.failed()) / float64(max(m.paced.sent, 1))
	for _, p := range m.ran() {
		for k := failTimeout; k < failKinds; k++ {
			if p.fails[k] > 0 {
				d["fail."+failNames[k]] += float64(p.fails[k])
			}
		}
	}

	if v := d["loadgen.late_p99_us"]; v > lateFlagUs {
		r.note("generator-bound: paced lateness p99 %.0f µs > %d µs — the schedule was not held", v, lateFlagUs)
	}
	d["loadgen.sat_server_busy_pct"] = 100 * m.satSrvBusy
	if m.sat != nil && m.genCPUUsPerReq >= m.satSrvCPUUsPerReq && m.satSrvCPUUsPerReq > 0 {
		r.note("generator-bound: in saturate the generator worked %.2f µs/request, the server %.2f — capacity is the generator's",
			m.genCPUUsPerReq, m.satSrvCPUUsPerReq)
	}
	// How the daemon batched during the first paced slice: the first thing to
	// look at when CPU per request moves.
	a, b := m.beforePaced, m.afterPaced
	if rb := b.ReadBatches - a.ReadBatches; rb > 0 {
		d["netio.rx_per_read"] = float64(b.Received-a.Received) / float64(rb)
	}
	if tr := b.TxTrains - a.TxTrains; tr > 0 {
		d["netio.tx_segs_per_train"] = float64(b.TxTrainSegs-a.TxTrainSegs) / float64(tr)
	}
	if en := b.UringEnters - a.UringEnters; en > 0 {
		d["netio.rx_per_uring_enter"] = float64(b.Received-a.Received) / float64(en)
	}
	// Reconcile the generator's lifetime counts with the daemon's.
	st := m.afterAll
	if st.Dropped+st.WriteErrors+st.ReadErrors > 0 {
		r.note("daemon counted dropped=%d write_errors=%d read_errors=%d", st.Dropped, st.WriteErrors, st.ReadErrors)
	}
	d["dataplane.received_gap"] = float64(m.genSent) - float64(st.Received)
	d["dataplane.reply_gap"] = float64(st.Replies) - float64(m.genRecv)
	if m.genSent != st.Received || m.genRecv != st.Replies {
		r.note("reconcile: generator sent %d, daemon received %d; daemon replied %d, generator received %d",
			m.genSent, st.Received, st.Replies, m.genRecv)
	}
}

func flipOverheadsMs(flips []flip) []float64 {
	var vs []float64
	for _, f := range flips {
		vs = append(vs, float64(f.wall-f.inner)/1e6)
	}
	return vs
}

// printMetrics writes one block of the human-readable table.
func printMetrics(title string, ms map[string]float64, units map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %s\n", title)
	for _, n := range names {
		fmt.Printf("    %-34s %14.4f %s\n", n, ms[n], units[n])
	}
}
