// Package daemon provides the one control loop of the repository: an
// Orchestrator that meters its service's request total, feeds its
// core.Policy and applies the decision, and the versioned /v1 HTTP API
// that exposes it, plus the serving daemons' shared flags and lifecycle
// (Flags, Serve). It runs on either clock. The daemons Start it
// on the wall clock; simhost.Orchestrate installs the simulator's clock
// (SetClock) and ticks it from the event loop, so every figure, scenario,
// example and chaos property exercises the loop the daemons run. A service
// registered without a Service implementation is advisory — the
// orchestrator only reports where it *would* run — while a real one
// (nictier.Service, wired by the daemons' -nictier flag) performs actual
// transition work on every shift: the orchestrator releases its mutex
// for the duration, so warm-ups and drains never stall the control API,
// and the measured shift duration, retry count and last error surface in
// ServiceStatus.
package daemon

import (
	"errors"
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"incod/internal/core"
	"incod/internal/dataplane"
	"incod/internal/power"
)

// Errors the control plane maps to HTTP statuses.
var (
	// ErrUnknownService names a service that is not registered.
	ErrUnknownService = errors.New("daemon: unknown service")
	// ErrNotTunable marks a policy without runtime rate thresholds.
	ErrNotTunable = errors.New("daemon: policy has no rate thresholds")
	// ErrNoDataplane marks a service without an attached serving engine.
	ErrNoDataplane = errors.New("daemon: service has no dataplane attached")
)

// DataplaneSource snapshots a serving engine's per-shard statistics;
// *dataplane.Engine implements it.
type DataplaneSource interface {
	Snapshot() dataplane.Stats
}

// PowerModel estimates host package power and CPU utilization from the
// observed request rate, standing in for RAPL on machines where the
// daemon has no hardware counters. Policies that need power input (the
// "power" policy) read these modeled values. The orchestrator reads it
// once per tick and only while the service runs on the host (the paper's
// controller pays its 0.3% CPU "mainly for performing RAPL reads").
type PowerModel func(kpps float64) (watts, cpu float64)

// CurveModel derives a PowerModel from one of the §4 calibrated software
// power curves.
func CurveModel(c power.SoftwareCurve) PowerModel {
	return func(kpps float64) (float64, float64) {
		return c.Power(kpps), c.Utilization(kpps)
	}
}

// ServiceConfig parameterizes Register.
type ServiceConfig struct {
	// Service is the workload to place. Nil registers an advisory
	// stand-in that only logs where the service would run.
	Service core.Service
	// Policy decides placement. Nil defaults to the mirrored-threshold
	// policy around an 80 kpps crossover.
	Policy core.Policy
	// Model supplies power/CPU readings to power-aware policies. Nil
	// leaves those sample fields NaN.
	Model PowerModel
}

// ManagedService is one registered service. Its datapath hook is
// UseCounter: the daemon points the orchestrator at the serving engine's
// monotonic request total, which the orchestrator samples once per tick,
// so the packet path pays nothing for metering.
type ManagedService struct {
	name  string
	svc   core.Service
	pol   core.Policy
	model PowerModel

	// count is the request total until UseCounter wires one; nothing in
	// a daemon adds to it (tests do, to feed the loop directly).
	count atomic.Uint64
	// external, when set, supplies the monotonic request total instead
	// of count (e.g. a dataplane engine's Handled).
	external atomic.Pointer[func() uint64]

	// Below are guarded by the orchestrator mutex.
	lastCount   uint64
	lastAt      time.Time
	window      []float64 // recent per-tick kpps, for status display
	pinned      *core.Placement
	shifts      int
	powerReads  uint64            // model reads by the tick, host-side only
	transitions []core.Transition // the last 32 applied shifts
	lastErr     string
	// shifting marks a transition task in flight: the orchestrator
	// releases its mutex while Shift runs (warm-up and drains take real
	// time and must not block the control plane), and this flag keeps a
	// concurrent tick or pin from starting a second one.
	shifting       bool
	shiftRetries   int           // lifetime count of failed shift attempts
	shiftRollbacks int           // failed shifts rolled back to the prior placement
	lastShiftDur   time.Duration // duration of the last completed attempt
}

// UseCounter installs the service's request total: a monotonic count,
// sampled once per orchestrator tick — the dataplane wiring, where the
// engine already counts every handled datagram. Call it before traffic
// starts; fn must be safe for concurrent use.
func (m *ManagedService) UseCounter(fn func() uint64) { m.external.Store(&fn) }

// total returns the current request count from whichever source is
// wired.
func (m *ManagedService) total() uint64 {
	if p := m.external.Load(); p != nil {
		return (*p)()
	}
	return m.count.Load()
}

// Orchestrator supervises the placement of the one service a program
// registers: each sample period it meters the service's request rate,
// feeds its policy, and applies (or, for an advisory service, logs) the
// decision. One orchestrator backs one daemon's /v1 control API.
type Orchestrator struct {
	mu        sync.Mutex
	svc       *ManagedService // nil until Register
	dataplane DataplaneSource // nil until AttachDataplane
	// clock is the one clock the orchestrator reads — for the loop's
	// ticks, pins, shift durations and the transition log. time.Now
	// unless SetClock installed another.
	clock    func() time.Time
	epoch    time.Time // when the first Tick or Pin happened
	period   time.Duration
	stop     chan struct{}
	stopOnce sync.Once
	started  bool
	// ready, when set, gates GET /v1/healthz: the endpoint answers 200
	// only while ready() is true (the daemons wire the serving engine's
	// Running). Unset means always ready.
	ready atomic.Pointer[func() bool]
}

// NewOrchestrator returns an orchestrator sampling every period
// (default 100ms). Call Start to begin the evaluation loop, or drive
// Tick directly.
func NewOrchestrator(period time.Duration) *Orchestrator {
	if period <= 0 {
		period = 100 * time.Millisecond
	}
	return &Orchestrator{
		clock:  time.Now,
		period: period,
		stop:   make(chan struct{}),
	}
}

// SetClock replaces the wall clock, the way SetReady installs a probe:
// the simulation driver passes the simulator's virtual time, so ticks,
// pins, measured shift durations and the transition log all share it.
// Install it before Start, the first Tick or the first Pin.
func (o *Orchestrator) SetClock(now func() time.Time) { o.clock = now }

// SetReady installs the readiness probe behind GET /v1/healthz. Pass the
// serving engine's Running so the endpoint reports 200 only once the
// dataplane actually serves (and flips back to 503 during shutdown);
// a nil fn restores the always-ready default.
func (o *Orchestrator) SetReady(fn func() bool) {
	if fn == nil {
		o.ready.Store(nil)
		return
	}
	o.ready.Store(&fn)
}

// Ready reports the installed readiness probe's verdict (true when none
// is installed).
func (o *Orchestrator) Ready() bool {
	if p := o.ready.Load(); p != nil {
		return (*p)()
	}
	return true
}

// Register makes name the orchestrator's service; a second Register
// fails. It returns the service's handle, on which the daemon wires its
// request total with UseCounter.
func (o *Orchestrator) Register(name string, cfg ServiceConfig) (*ManagedService, error) {
	if name == "" {
		return nil, fmt.Errorf("daemon: service name must be non-empty")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.svc != nil {
		return nil, fmt.Errorf("daemon: cannot register %q: service %q already registered", name, o.svc.name)
	}
	svc := cfg.Service
	if svc == nil {
		// No hardware attached: shifts always succeed, modeling where the
		// workload would run (apply logs each one).
		svc = &core.FuncService{ServiceName: name}
	}
	pol := cfg.Policy
	if pol == nil {
		pol = core.NewThresholdPolicy(core.DefaultNetworkConfig(80))
	}
	o.svc = &ManagedService{name: name, svc: svc, pol: pol, model: cfg.Model}
	return o.svc, nil
}

// Start launches the background evaluation loop.
func (o *Orchestrator) Start() {
	o.mu.Lock()
	if o.started {
		o.mu.Unlock()
		return
	}
	o.started = true
	o.mu.Unlock()
	go o.loop()
}

// Close stops the evaluation loop. It is idempotent.
func (o *Orchestrator) Close() { o.stopOnce.Do(func() { close(o.stop) }) }

func (o *Orchestrator) loop() {
	tick := time.NewTicker(o.period)
	defer tick.Stop()
	for {
		select {
		case <-o.stop:
			return
		case <-tick.C:
			o.Tick(o.clock())
		}
	}
}

// Tick performs one sampling + decision step for the service at time
// now: the step primitive. Whoever owns time calls it — the background
// loop with the clock's reading, the simulation driver from the event
// loop, tests with synthetic times.
func (o *Orchestrator) Tick(now time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.since(now)
	if o.svc != nil {
		o.tickService(o.svc, now)
	}
}

// since returns now relative to the epoch, which the first call sets.
func (o *Orchestrator) since(now time.Time) time.Duration {
	if o.epoch.IsZero() {
		o.epoch = now
	}
	return now.Sub(o.epoch)
}

func (o *Orchestrator) tickService(m *ManagedService, now time.Time) {
	count := m.total()
	if m.lastAt.IsZero() {
		m.lastCount, m.lastAt = count, now
		return
	}
	dt := now.Sub(m.lastAt).Seconds()
	if dt <= 0 {
		return
	}
	kpps := float64(count-m.lastCount) / dt / 1000
	m.lastCount, m.lastAt = count, now
	m.window = append(m.window, kpps)
	if len(m.window) > 32 {
		m.window = m.window[1:]
	}

	// A transition is in flight on another goroutine (or further up this
	// stack): keep metering, but make no new decision until it lands.
	if m.shifting {
		return
	}

	placement := m.svc.Placement()
	// A manual pin overrides the policy until released.
	if m.pinned != nil {
		if placement != *m.pinned {
			o.apply(m, now, *m.pinned, "manual placement pin")
		}
		return
	}
	s := core.Sample{
		At:        o.since(now),
		Placement: placement,
		RateKpps:  kpps,
		PowerW:    math.NaN(),
		CPUUtil:   math.NaN(),
	}
	if m.model != nil && placement == core.Host {
		m.powerReads++
		s.PowerW, s.CPUUtil = m.model(kpps)
	}
	if d := m.pol.Observe(s); d.Shift {
		if o.apply(m, now, d.Target, d.Reason) {
			m.pol.Reset()
		}
	}
}

// apply shifts m to target at time now, recording the outcome. It reports
// success. It is called with the orchestrator mutex held and RELEASES it
// while the service's transition task runs — real transition work (cache
// warm-up, state handoff, fast-path drains) takes time, and the
// control plane must stay responsive (and pinnable) throughout. The
// m.shifting flag keeps concurrent ticks and pins from overlapping a
// second transition; they re-evaluate on the next tick instead.
// Repeated identical failures (a pinned service whose transition task
// keeps failing is retried every tick) are logged once, not per tick.
func (o *Orchestrator) apply(m *ManagedService, now time.Time, target core.Placement, reason string) bool {
	if m.shifting {
		return false
	}
	m.shifting = true
	from := m.svc.Placement()
	o.mu.Unlock()
	start := o.clock()
	err := m.svc.Shift(target)
	dur := o.clock().Sub(start)
	rolledBack := false
	var rollbackErr error
	if err != nil && m.svc.Placement() != from {
		// The transition task failed after the service had already left
		// its prior placement — the exact stranding a wedged daemon shows.
		// Roll back so placement, dispatch and the fast-path fence agree
		// again; the policy (or pin) re-evaluates from a sane state on the
		// next tick instead of retrying forever from limbo.
		if rollbackErr = m.svc.Shift(from); rollbackErr == nil {
			rolledBack = true
		}
	}
	o.mu.Lock()
	m.shifting = false
	m.lastShiftDur = dur
	if err != nil {
		m.shiftRetries++
		if rolledBack {
			m.shiftRollbacks++
		}
		msg := err.Error()
		if rollbackErr != nil {
			msg += "; rollback to " + from.String() + " also failed: " + rollbackErr.Error()
		}
		if msg != m.lastErr {
			if rolledBack {
				log.Printf("%s: on-demand: shift to %s failed, rolled back to %s: %v", m.name, target, from, err)
			} else {
				log.Printf("%s: on-demand: shift to %s failed: %v", m.name, target, msg)
			}
		}
		m.lastErr = msg
		return false
	}
	m.lastErr = ""
	m.shifts++
	tr := core.Transition{At: o.since(now), To: target, Reason: reason, Took: dur}
	if cr, ok := m.svc.(core.CostReporter); ok {
		tr.Cost = cr.TransitionCost(target)
	}
	m.transitions = append(m.transitions, tr)
	if len(m.transitions) > 32 {
		m.transitions = m.transitions[1:]
	}
	log.Printf("%s: on-demand: shift to %s in %v (%s)", m.name, target, dur.Round(time.Microsecond), reason)
	return true
}

// Thresholds is the runtime-adjustable §9.1 mirrored rate pair ("all of
// its parameters are configurable"). Zero values mean "keep the current
// setting"; negative or non-finite values are rejected. Clamped reports
// that the to-host threshold was lowered to preserve hysteresis.
type Thresholds struct {
	ToNetworkKpps float64 `json:"to_network_kpps"`
	ToHostKpps    float64 `json:"to_host_kpps"`
	Clamped       bool    `json:"clamped,omitempty"`
	Note          string  `json:"note,omitempty"`
}

// ServiceStatus is the control-plane view of one managed service.
type ServiceStatus struct {
	Name       string  `json:"name"`
	Placement  string  `json:"placement"`
	Policy     string  `json:"policy"`
	Pinned     string  `json:"pinned,omitempty"`
	Shifts     int     `json:"shifts"`
	Requests   uint64  `json:"requests"`
	WindowKpps float64 `json:"window_kpps"`
	// ModeledWatts is the service's power model evaluated at the window
	// rate — the host-software draw a fleet controller ranks placement
	// candidates by. Absent when the service has no power model.
	ModeledWatts float64 `json:"modeled_watts,omitempty"`
	// Flaps counts shifts beyond the first — the quantity hysteresis is
	// meant to minimize.
	Flaps int `json:"flaps"`
	// PowerReads counts the tick's reads of the power model, made only
	// while the service is on the host.
	PowerReads uint64 `json:"power_reads"`

	// Shifting reports a transition task in flight right now.
	Shifting bool `json:"shifting,omitempty"`
	// ShiftRetries counts failed shift attempts over the service's life.
	ShiftRetries int `json:"shift_retries,omitempty"`
	// ShiftRollbacks counts failed shifts that left the service stranded
	// mid-transition and were rolled back to the prior placement.
	ShiftRollbacks int `json:"shift_rollbacks,omitempty"`
	// LastShiftDuration is how long the most recent shift attempt took
	// (successful or not), as a Go duration string.
	LastShiftDuration string `json:"last_shift_duration,omitempty"`

	Thresholds  *Thresholds `json:"thresholds,omitempty"`
	Transitions []string    `json:"transitions,omitempty"`
	LastError   string      `json:"last_error,omitempty"`
}

func (o *Orchestrator) lookup(name string) (*ManagedService, error) {
	if o.svc == nil || o.svc.name != name {
		return nil, fmt.Errorf("%w: %q", ErrUnknownService, name)
	}
	return o.svc, nil
}

func (o *Orchestrator) statusLocked(m *ManagedService) ServiceStatus {
	s := ServiceStatus{
		Name:           m.name,
		Placement:      m.svc.Placement().String(),
		Policy:         m.pol.Name(),
		Shifts:         m.shifts,
		Flaps:          max(m.shifts-1, 0),
		PowerReads:     m.powerReads,
		Requests:       m.total(),
		LastError:      m.lastErr,
		Shifting:       m.shifting,
		ShiftRetries:   m.shiftRetries,
		ShiftRollbacks: m.shiftRollbacks,
	}
	if m.lastShiftDur > 0 {
		s.LastShiftDuration = m.lastShiftDur.Round(time.Microsecond).String()
	}
	if m.pinned != nil {
		s.Pinned = m.pinned.String()
	}
	if n := len(m.window); n > 0 {
		var sum float64
		for _, k := range m.window {
			sum += k
		}
		s.WindowKpps = sum / float64(n)
	}
	if m.model != nil {
		if w, _ := m.model(s.WindowKpps); !math.IsNaN(w) {
			s.ModeledWatts = w
		}
	}
	if tun, ok := m.pol.(core.Tunable); ok {
		toNet, toHost := tun.RateThresholds()
		s.Thresholds = &Thresholds{ToNetworkKpps: toNet, ToHostKpps: toHost}
	}
	for _, tr := range m.transitions {
		entry := fmt.Sprintf("%s -> %s in %v (%s)", o.epoch.Add(tr.At).Format(time.RFC3339), tr.To,
			tr.Took.Round(time.Microsecond), tr.Reason)
		if tr.Cost.Note != "" {
			entry += " [task: " + tr.Cost.Note + "]"
		}
		s.Transitions = append(s.Transitions, entry)
	}
	return s
}

// Transitions returns name's transition records, oldest first (the last
// 32; nil for an unknown service): what the status strings are rendered
// from, and what the figures print.
func (o *Orchestrator) Transitions(name string) []core.Transition {
	o.mu.Lock()
	defer o.mu.Unlock()
	if m, err := o.lookup(name); err == nil {
		return append([]core.Transition(nil), m.transitions...)
	}
	return nil
}

// Status snapshots one service.
func (o *Orchestrator) Status(name string) (ServiceStatus, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m, err := o.lookup(name)
	if err != nil {
		return ServiceStatus{}, err
	}
	return o.statusLocked(m), nil
}

// Statuses snapshots the service as a list: one element, or none
// before Register.
func (o *Orchestrator) Statuses() []ServiceStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.svc == nil {
		return []ServiceStatus{}
	}
	return []ServiceStatus{o.statusLocked(o.svc)}
}

// Thresholds reads a service's mirrored rate pair. ErrNotTunable if its
// policy has none.
func (o *Orchestrator) Thresholds(name string) (Thresholds, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m, err := o.lookup(name)
	if err != nil {
		return Thresholds{}, err
	}
	tun, ok := m.pol.(core.Tunable)
	if !ok {
		return Thresholds{}, fmt.Errorf("%w: %q runs policy %s", ErrNotTunable, name, m.pol.Name())
	}
	toNet, toHost := tun.RateThresholds()
	return Thresholds{ToNetworkKpps: toNet, ToHostKpps: toHost}, nil
}

// SetThresholds updates a service's mirrored rate pair (partial updates
// allowed: zero keeps the current value). Invalid values are rejected;
// any hysteresis clamp is reported in the returned Thresholds.
func (o *Orchestrator) SetThresholds(name string, t Thresholds) (Thresholds, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m, err := o.lookup(name)
	if err != nil {
		return Thresholds{}, err
	}
	tun, ok := m.pol.(core.Tunable)
	if !ok {
		return Thresholds{}, fmt.Errorf("%w: %q runs policy %s", ErrNotTunable, name, m.pol.Name())
	}
	clamped, err := tun.SetRateThresholds(t.ToNetworkKpps, t.ToHostKpps)
	if err != nil {
		return Thresholds{}, err
	}
	toNet, toHost := tun.RateThresholds()
	out := Thresholds{ToNetworkKpps: toNet, ToHostKpps: toHost, Clamped: clamped}
	if clamped {
		out.Note = "to_host_kpps clamped below to_network_kpps to preserve hysteresis"
	}
	return out, nil
}

// Pin overrides the policy, holding name at p until Unpin. The shift is
// attempted immediately; if the transition task fails the pin still
// takes effect — the failure is recorded in the service status and the
// orchestrator retries every tick until it succeeds or the pin is
// released.
func (o *Orchestrator) Pin(name string, p core.Placement) error {
	now := o.clock()
	o.mu.Lock()
	defer o.mu.Unlock()
	m, err := o.lookup(name)
	if err != nil {
		return err
	}
	m.pinned = &p
	if m.svc.Placement() != p {
		o.apply(m, now, p, "manual placement pin")
	}
	return nil
}

// AttachDataplane surfaces a serving engine's per-shard stats for the
// registered service name on the /v1 control API. Typically paired with
// ManagedService.UseCounter so rate metering and stats come from the
// same engine.
func (o *Orchestrator) AttachDataplane(name string, src DataplaneSource) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, err := o.lookup(name); err != nil {
		return err
	}
	o.dataplane = src
	return nil
}

// Dataplane snapshots the engine attached to name.
func (o *Orchestrator) Dataplane(name string) (dataplane.Stats, error) {
	o.mu.Lock()
	src := o.dataplane
	_, err := o.lookup(name)
	o.mu.Unlock()
	if err != nil {
		return dataplane.Stats{}, err
	}
	if src == nil {
		return dataplane.Stats{}, fmt.Errorf("%w: %q", ErrNoDataplane, name)
	}
	return src.Snapshot(), nil
}

// Dataplanes snapshots the attached engine keyed by its service's name:
// one entry, or none before AttachDataplane.
func (o *Orchestrator) Dataplanes() map[string]dataplane.Stats {
	o.mu.Lock()
	src, m := o.dataplane, o.svc
	o.mu.Unlock()
	out := make(map[string]dataplane.Stats, 1)
	if src != nil {
		out[m.name] = src.Snapshot()
	}
	return out
}

// Unpin releases a manual placement pin, returning name to its policy.
func (o *Orchestrator) Unpin(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	m, err := o.lookup(name)
	if err != nil {
		return err
	}
	if m.pinned != nil {
		m.pinned = nil
		m.pol.Reset()
	}
	return nil
}
