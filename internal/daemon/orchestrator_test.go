package daemon

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/dataplane"
	"incod/internal/power"
)

// counters holds the request total each test service is fed through
// UseCounter, as a daemon wires its engine's.
var counters sync.Map // *ManagedService -> *atomic.Uint64

// counter returns m's request total, wiring it on first use.
func counter(m *ManagedService) *atomic.Uint64 {
	c, loaded := counters.LoadOrStore(m, new(atomic.Uint64))
	if !loaded {
		m.UseCounter(c.(*atomic.Uint64).Load)
	}
	return c.(*atomic.Uint64)
}

// drive feeds m a synthetic request stream at kpps for d of synthetic
// wall time, stepping the orchestrator's decision tick manually.
func drive(o *Orchestrator, m *ManagedService, start time.Time, kpps float64, d time.Duration) time.Time {
	const step = 100 * time.Millisecond
	now := start
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		now = now.Add(step)
		counter(m).Add(uint64(kpps * 1000 * step.Seconds()))
		o.Tick(now)
	}
	return now
}

// newTestOrch returns an un-started orchestrator (tests drive Tick) with
// one threshold-policy service, pre-ticked so rate metering is primed.
func newTestOrch(t *testing.T, cross float64) (*Orchestrator, *ManagedService, time.Time) {
	t.Helper()
	o := NewOrchestrator(0)
	m, err := o.Register("test", ServiceConfig{
		Policy: core.NewThresholdPolicy(core.DefaultNetworkConfig(cross)),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	o.Tick(start) // prime lastAt/epoch
	return o, m, start
}

func placement(t *testing.T, o *Orchestrator) string {
	t.Helper()
	s, err := o.Status()
	if err != nil {
		t.Fatal(err)
	}
	return s.Placement
}

func TestOrchestratorShiftsUpAndBack(t *testing.T) {
	o, m, start := newTestOrch(t, 100)
	if placement(t, o) != "host" {
		t.Fatal("service should start on the host")
	}
	// Low rate: stays.
	now := drive(o, m, start, 20, 3*time.Second)
	if placement(t, o) != "host" {
		t.Fatal("low rate must stay on host")
	}
	// Sustained high rate: shifts.
	now = drive(o, m, now, 200, 2*time.Second)
	if placement(t, o) != "network" {
		t.Fatal("sustained high rate should shift to network")
	}
	// Inside the hysteresis band: holds.
	now = drive(o, m, now, 90, 5*time.Second)
	if placement(t, o) != "network" {
		t.Fatal("hysteresis band must not shift back")
	}
	// Low: returns.
	_ = drive(o, m, now, 5, 3*time.Second)
	if placement(t, o) != "host" {
		t.Fatal("low sustained rate should shift back")
	}
	s, _ := o.Status()
	if s.Shifts != 2 {
		t.Errorf("shifts = %d, want 2", s.Shifts)
	}
	if len(s.Transitions) != 2 {
		t.Errorf("transition log = %v, want 2 entries", s.Transitions)
	}
}

func TestOrchestratorSpikeSuppression(t *testing.T) {
	o, m, start := newTestOrch(t, 100)
	now := drive(o, m, start, 20, 3*time.Second)
	// A 200ms 300 kpps spike, then quiet: the 1s window averages it to
	// ~76 kpps, below the 110 kpps up-threshold.
	now = drive(o, m, now, 300, 200*time.Millisecond)
	_ = drive(o, m, now, 20, 3*time.Second)
	s, _ := o.Status()
	if s.Placement != "host" || s.Shifts != 0 {
		t.Errorf("spike should not shift (placement %v, shifts %d)", s.Placement, s.Shifts)
	}
}

// The power policy runs live off a modeled RAPL (an energy-model curve
// mapping the metered rate to watts and CPU).
func TestOrchestratorPowerPolicy(t *testing.T) {
	curve := power.SoftwareCurve{
		IdleWatts: 40,
		JumpWatts: 50, JumpScaleKpps: 50, PeakKpps: 100,
	}
	pol, err := core.PolicyByName("power", 80)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOrchestrator(0)
	m, err := o.Register("kvs", ServiceConfig{Policy: pol, Model: CurveModel(curve)})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	o.Tick(start)
	// 90 kpps: ~81 W and 90% utilization, sustained past the 3 s trigger.
	now := drive(o, m, start, 90, 4*time.Second)
	if placement(t, o) != "network" {
		t.Fatal("sustained power+CPU should shift to network")
	}
	// The model stands in for RAPL, which the controller reads only while
	// the service is on the host: in the band above the return threshold
	// nothing moves and nothing is read.
	up, _ := o.Status()
	if up.PowerReads == 0 {
		t.Fatal("the host-side ticks should have read the power model")
	}
	now = drive(o, m, now, 90, 2*time.Second)
	if s, _ := o.Status(); s.Placement != "network" || s.PowerReads != up.PowerReads {
		t.Fatalf("power_reads went %d -> %d while on the network (%s)", up.PowerReads, s.PowerReads, s.Placement)
	}
	// Low device rate sustained: back to host (to-host threshold 56 kpps).
	_ = drive(o, m, now, 10, 4*time.Second)
	s, _ := o.Status()
	if s.Placement != "host" || s.Flaps != 1 {
		t.Fatalf("low sustained rate should shift back to host with one flap, got %+v", s)
	}
	if s.PowerReads <= up.PowerReads {
		t.Error("back on the host the reads should resume")
	}
}

func TestOrchestratorPinOverridesPolicy(t *testing.T) {
	o, m, start := newTestOrch(t, 100)
	if err := o.Pin(core.Network); err != nil {
		t.Fatal(err)
	}
	if placement(t, o) != "network" {
		t.Fatal("pin must shift immediately")
	}
	// Zero traffic would shift an unpinned service back; the pin holds.
	now := drive(o, m, start, 0, 5*time.Second)
	if placement(t, o) != "network" {
		t.Fatal("pin must override the policy")
	}
	if err := o.Unpin(); err != nil {
		t.Fatal(err)
	}
	_ = drive(o, m, now, 0, 4*time.Second)
	if placement(t, o) != "host" {
		t.Fatal("after unpin the policy should take over again")
	}
}

func TestOrchestratorShiftFailureRetries(t *testing.T) {
	o := NewOrchestrator(0)
	fail := true
	svc := &core.FuncService{ServiceName: "flaky", Where: core.Host,
		OnShift: func(core.Placement) error {
			if fail {
				return errTest
			}
			return nil
		}}
	m, err := o.Register("flaky", ServiceConfig{
		Service: svc,
		Policy:  core.NewThresholdPolicy(core.DefaultNetworkConfig(100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	o.Tick(start)
	now := drive(o, m, start, 300, 3*time.Second)
	s, _ := o.Status()
	if s.Placement != "host" || s.LastError == "" {
		t.Fatalf("failed shift must stay put and record the error, got %+v", s)
	}
	fail = false
	_ = drive(o, m, now, 300, 2*time.Second)
	s, _ = o.Status()
	if s.Placement != "network" || s.LastError != "" {
		t.Fatalf("orchestrator should retry and clear the error, got %+v", s)
	}
}

// strandingService violates the core.Service stay-put contract: while
// unhealed, every up-shift moves the placement to the target AND returns
// an error — the wedged-daemon shape where the flip landed but the
// transition task died. Down-shifts (including the orchestrator's
// rollback) always succeed.
type strandingService struct {
	mu     sync.Mutex
	where  core.Placement
	healed bool
	shifts []core.Placement
}

func (s *strandingService) Name() string { return "strander" }

func (s *strandingService) Placement() core.Placement {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.where
}

func (s *strandingService) Shift(to core.Placement) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if to == s.where {
		return nil
	}
	s.shifts = append(s.shifts, to)
	s.where = to
	if to == core.Network && !s.healed {
		return errTest
	}
	return nil
}

func (s *strandingService) heal() {
	s.mu.Lock()
	s.healed = true
	s.mu.Unlock()
}

// A shift that fails AFTER moving the service must be rolled back: the
// orchestrator restores the prior placement, counts it, and surfaces the
// error — rather than reporting a placement the failed transition never
// finished establishing.
func TestOrchestratorRollsBackStrandedShift(t *testing.T) {
	o := NewOrchestrator(0)
	svc := &strandingService{where: core.Host}
	m, err := o.Register("strander", ServiceConfig{
		Service: svc,
		Policy:  core.NewThresholdPolicy(core.DefaultNetworkConfig(100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	o.Tick(start)
	now := drive(o, m, start, 300, 1500*time.Millisecond)
	s, _ := o.Status()
	if s.Placement != "host" {
		t.Fatalf("stranded shift must be rolled back to host, got %+v", s)
	}
	if s.ShiftRollbacks == 0 {
		t.Fatalf("rollbacks must be counted, got %+v", s)
	}
	if s.LastError == "" {
		t.Fatalf("original shift error must be surfaced, got %+v", s)
	}
	svc.mu.Lock()
	gotShifts := append([]core.Placement(nil), svc.shifts[:2]...)
	svc.mu.Unlock()
	if gotShifts[0] != core.Network || gotShifts[1] != core.Host {
		t.Fatalf("shift sequence = %v, want [network host ...]", gotShifts)
	}
	rollbacks := s.ShiftRollbacks
	// The rate is still high, so later ticks retry; the now-healthy
	// service converges on the network and the error clears.
	svc.heal()
	_ = drive(o, m, now, 300, 2*time.Second)
	s, _ = o.Status()
	if s.Placement != "network" || s.LastError != "" {
		t.Fatalf("post-rollback retry should converge, got %+v", s)
	}
	if s.ShiftRollbacks != rollbacks {
		t.Fatalf("rollback count is lifetime (%d), got %+v", rollbacks, s)
	}
}

// A pin whose transition task fails still takes effect: the failure is
// recorded in status and the orchestrator retries every tick.
func TestPinWithFailingShiftRetries(t *testing.T) {
	o := NewOrchestrator(0)
	fail := true
	svc := &core.FuncService{ServiceName: "flaky", Where: core.Host,
		OnShift: func(core.Placement) error {
			if fail {
				return errTest
			}
			return nil
		}}
	m, err := o.Register("flaky", ServiceConfig{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Pin(core.Network); err != nil {
		t.Fatalf("pin must apply even when the shift fails, got %v", err)
	}
	s, _ := o.Status()
	if s.Pinned != "network" || s.Placement != "host" || s.LastError == "" {
		t.Fatalf("want pinned+error status, got %+v", s)
	}
	fail = false
	start := time.Unix(0, 0)
	o.Tick(start)
	_ = drive(o, m, start, 0, 500*time.Millisecond)
	s, _ = o.Status()
	if s.Placement != "network" || s.LastError != "" {
		t.Fatalf("pin retry should converge, got %+v", s)
	}
}

// A manual pin arriving while a policy-driven shift is in flight must
// neither deadlock nor be lost: the orchestrator releases its mutex for
// the duration of the transition task, stays responsive (status shows
// shifting), and converges on the pinned placement once the in-flight
// shift lands.
func TestPinRacesInFlightShift(t *testing.T) {
	o := NewOrchestrator(0)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc := &core.FuncService{ServiceName: "slow", Where: core.Host,
		OnShift: func(to core.Placement) error {
			if to == core.Network {
				// Block the first up-shift mid-flight until released.
				once.Do(func() {
					close(entered)
					<-release
				})
			}
			return nil
		}}
	m, err := o.Register("slow", ServiceConfig{
		Service: svc,
		Policy:  core.NewThresholdPolicy(core.DefaultNetworkConfig(100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	o.Tick(start)

	// Drive a sustained high rate on another goroutine; the decisive
	// Tick will block inside svc.Shift with the mutex released.
	tickDone := make(chan time.Time, 1)
	go func() {
		tickDone <- drive(o, m, start, 300, 3*time.Second)
	}()
	<-entered

	// Mid-shift: the control plane must stay responsive and honest...
	s, err := o.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Shifting {
		t.Fatalf("status during a transition must report shifting, got %+v", s)
	}
	// ...and a manual pin must be accepted without deadlock. The service
	// is still on the host (the shift has not landed), so the pin's
	// immediate apply is a no-op; the in-flight shift lands afterwards
	// and the next ticks must bring the service back to the pin.
	if err := o.Pin(core.Host); err != nil {
		t.Fatal(err)
	}
	close(release)
	now := <-tickDone

	_ = drive(o, m, now, 300, time.Second)
	s, _ = o.Status()
	if s.Placement != "host" || s.Pinned != "host" {
		t.Fatalf("pin must win over the raced shift, got %+v", s)
	}
	if s.Shifting {
		t.Fatalf("no transition should be in flight at rest, got %+v", s)
	}
	if s.LastShiftDuration == "" {
		t.Fatalf("shift duration must be recorded, got %+v", s)
	}
}

// Shift failures surface on the status API: the retry count and the last
// error string, which clear-on-success semantics keep honest.
func TestShiftRetryCountAndDurationInStatus(t *testing.T) {
	o := NewOrchestrator(0)
	fail := true
	svc := &core.FuncService{ServiceName: "flaky", Where: core.Host,
		OnShift: func(core.Placement) error {
			if fail {
				return errTest
			}
			return nil
		}}
	m, err := o.Register("flaky", ServiceConfig{
		Service: svc,
		Policy:  core.NewThresholdPolicy(core.DefaultNetworkConfig(100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	o.Tick(start)
	now := drive(o, m, start, 300, 3*time.Second)
	s, _ := o.Status()
	if s.ShiftRetries == 0 {
		t.Fatalf("failed attempts must be counted, got %+v", s)
	}
	if s.LastError == "" || s.LastShiftDuration == "" {
		t.Fatalf("failure detail missing from status: %+v", s)
	}
	retriesSoFar := s.ShiftRetries
	fail = false
	_ = drive(o, m, now, 300, 2*time.Second)
	s, _ = o.Status()
	if s.Placement != "network" || s.LastError != "" {
		t.Fatalf("success must clear the error, got %+v", s)
	}
	if s.ShiftRetries != retriesSoFar {
		t.Fatalf("retry count is lifetime (%d), got %+v", retriesSoFar, s)
	}
}

// A fleet controller polls /v1 aggressively — many concurrent Status,
// Dataplane and /v1 list readers — while shifts are in flight and while
// the daemon shuts down. None of that may wedge: reads stay responsive
// mid-shift (the orchestrator's mutex is released for the transition),
// and Close completes while readers keep hammering.
func TestConcurrentReadersDuringShiftAndShutdown(t *testing.T) {
	o := NewOrchestrator(time.Millisecond)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc := &core.FuncService{ServiceName: "slow", Where: core.Host,
		OnShift: func(to core.Placement) error {
			once.Do(func() {
				close(entered)
				<-release
			})
			return nil
		}}
	m, err := o.Register("slow", ServiceConfig{
		Service: svc,
		Policy:  core.NewThresholdPolicy(core.DefaultNetworkConfig(10)),
		Model:   CurveModel(power.MemcachedMellanox),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AttachDataplane("slow", snapshotFunc(func() dataplane.Stats {
		return dataplane.Stats{Mode: "single-reader", Sockets: 1}
	})); err != nil {
		t.Fatal(err)
	}
	o.Start()

	// Feed traffic so the background loop decides to shift; the shift
	// then blocks inside OnShift with the orchestrator mutex released.
	feedStop := make(chan struct{})
	go func() {
		for {
			select {
			case <-feedStop:
				return
			default:
				counter(m).Add(5000)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("shift never started")
	}

	// Hammer every read path from many goroutines, through the shift and
	// through shutdown.
	readersDone := make(chan struct{})
	stopReaders := make(chan struct{})
	h := o.Handler()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				if _, err := o.Status(); err != nil {
					t.Errorf("Status: %v", err)
					return
				}
				for _, path := range []string{"/v1/services", "/v1/dataplane"} {
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
				}
				if _, err := o.Dataplane(); err != nil {
					t.Errorf("Dataplane: %v", err)
					return
				}
				_ = o.Ready()
			}
		}()
	}
	go func() { wg.Wait(); close(readersDone) }()

	// Mid-shift reads must observe the in-flight transition.
	deadline := time.After(5 * time.Second)
	for {
		s, err := o.Status()
		if err != nil {
			t.Fatal(err)
		}
		if s.Shifting {
			break
		}
		select {
		case <-deadline:
			t.Fatal("status never reported the in-flight shift")
		case <-time.After(time.Millisecond):
		}
	}

	// Shut down while the shift is still blocked and readers are live;
	// Close must not wedge behind either.
	closed := make(chan struct{})
	go func() { o.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged behind an in-flight shift and concurrent readers")
	}
	close(release) // let the transition land after shutdown
	close(feedStop)

	// Readers must still drain cleanly post-Close.
	time.Sleep(10 * time.Millisecond)
	close(stopReaders)
	select {
	case <-readersDone:
	case <-time.After(5 * time.Second):
		t.Fatal("readers wedged after shutdown")
	}
}

// snapshotFunc adapts a function to DataplaneSource.
type snapshotFunc func() dataplane.Stats

func (f snapshotFunc) Snapshot() dataplane.Stats { return f() }

var errTest = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "transition task failed" }

// StartControlPlane calibrates the power policy's watts trigger to the
// workload's own curve at the crossover — a fixed default would be
// unreachable for low-draw curves like libpaxos.
func TestStartControlPlanePowerCalibration(t *testing.T) {
	curve := power.SoftwareCurve{IdleWatts: 40, JumpWatts: 5,
		JumpScaleKpps: 10, PeakKpps: 100}
	orch, _, _, err := StartControlPlane(StartOptions{
		Name: "svc", Policy: "power", CrossKpps: 50, Curve: curve,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer orch.Close()
	pol, ok := orch.svc.pol.(*core.PowerPolicy)
	if !ok {
		t.Fatalf("policy = %T, want *core.PowerPolicy", orch.svc.pol)
	}
	// The watts trigger is the curve's draw at the crossover: sustained
	// power above it offloads, power at it does not.
	trips := func(watts float64) bool {
		pol.Reset()
		hot := core.Sample{Placement: core.Host, PowerW: watts, CPUUtil: 1}
		pol.Observe(hot)
		hot.At = time.Hour
		return pol.Observe(hot).Shift
	}
	if want := curve.Power(50); !trips(want+1e-6) || trips(want) {
		t.Errorf("watts trigger is not the curve draw at crossover %v", want)
	}

	if _, _, _, err := StartControlPlane(StartOptions{
		Name: "svc", Policy: "bogus", CrossKpps: 50, Curve: curve,
	}); err == nil {
		t.Error("unknown policy must error")
	}
}

func TestRegisterValidation(t *testing.T) {
	o := NewOrchestrator(0)
	if _, err := o.Register("", ServiceConfig{}); err == nil {
		t.Error("empty name must be rejected")
	}
	if _, err := o.Register("dup", ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Register("dup", ServiceConfig{}); err == nil {
		t.Error("duplicate name must be rejected")
	}
	if _, err := o.Register("other", ServiceConfig{}); err == nil {
		t.Error("a second service must be rejected: an orchestrator holds one")
	}
	if _, err := NewOrchestrator(0).Status(); err == nil || !strings.Contains(err.Error(), "unknown service") {
		t.Errorf("unknown service error before Register, got %v", err)
	}
}

func TestOrchestratorCloseIdempotent(t *testing.T) {
	o := NewOrchestrator(time.Millisecond)
	o.Start()
	o.Close()
	o.Close() // must not panic
}
