package fleet

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
)

// testMember is a member whose orchestrator the test ticks on a
// synthetic clock, fed a synthetic request total.
type testMember struct {
	orch   *daemon.Orchestrator
	served atomic.Uint64 // the request total the orchestrator samples
	svc    *core.FuncService
	now    time.Time
}

func newTestMember(t *testing.T, name string) (Member, *testMember) {
	t.Helper()
	o := daemon.NewOrchestrator(0)
	svc := &core.FuncService{ServiceName: "kvs"}
	ms, err := o.Register("kvs", daemon.ServiceConfig{
		Service: svc,
		// The fleet owns placement, like StartMember's static-host
		// members; pins override it.
		Policy: &core.StaticPolicy{Target: core.Host},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := Member{Name: name, Kind: "kvs", Data: "127.0.0.1:0", Orch: o}
	tm := &testMember{orch: o, svc: svc, now: time.Unix(1000, 0)}
	ms.UseCounter(tm.served.Load)
	return m, tm
}

// serve advances the member's measured load: ticks seconds of synthetic
// time at kpps, enough of them to flush the status window.
func (tm *testMember) serve(kpps float64, seconds int) {
	for i := 0; i < seconds; i++ {
		tm.now = tm.now.Add(time.Second)
		tm.served.Add(uint64(kpps * 1000))
		tm.orch.Tick(tm.now)
	}
}

func (tm *testMember) placement() core.Placement { return tm.svc.Placement() }

func litCount(tms []*testMember) int {
	n := 0
	for _, tm := range tms {
		if tm.placement() == core.Network {
			n++
		}
	}
	return n
}

// The controller holds the budget through the members' live
// orchestrator API, called directly.
func TestControllerEnforcesBudgetOverLiveAPI(t *testing.T) {
	names := []string{"kvs-0", "kvs-1", "kvs-2"}
	members := make([]Member, len(names))
	backends := make([]*testMember, len(names))
	for i, n := range names {
		members[i], backends[i] = newTestMember(t, n)
	}

	ctrl, err := NewController(Config{
		Members: members,
		Sched: SchedulerConfig{
			K: 1, Hold: 1,
		},
		RateScale: 30,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.AdoptAll(); err != nil {
		t.Fatal(err)
	}

	// Distinct measured loads: 10 kpps * scale 30 = 300 modeled kpps is
	// deep in offload-pays territory; the others are marginal.
	backends[0].serve(0.5, 35)
	backends[1].serve(2, 35)
	backends[2].serve(10, 35)

	ctrl.Tick()
	if got := litCount(backends); got != 1 {
		t.Fatalf("after first tick: %d lit, want 1", got)
	}
	if backends[2].placement() != core.Network {
		t.Fatal("the highest-load member should have been lit first")
	}

	// Steady state: re-ticking the same load changes nothing.
	for i := 0; i < 5; i++ {
		ctrl.Tick()
	}
	snap := ctrl.Snapshot()
	if snap.Lit != 1 || snap.MaxLit != 1 || snap.BudgetViolations != 0 {
		t.Fatalf("steady snapshot: %+v", snap)
	}
	if snap.Shifts != 1 {
		t.Fatalf("steady fleet kept shifting: %d shifts", snap.Shifts)
	}
	if snap.Healthy != 3 {
		t.Fatalf("healthy = %d, want 3", snap.Healthy)
	}

	// Demand moves: member 0 surges past the incumbent, member 2 goes
	// quiet. The scheduler swaps — douse first, light later, never two
	// lit at once.
	backends[0].serve(15, 40)
	backends[2].serve(0.2, 40)
	sawDark := false
	for i := 0; i < 6 && backends[0].placement() != core.Network; i++ {
		ctrl.Tick()
		if n := litCount(backends); n > 1 {
			t.Fatalf("swap overlit the fleet: %d lit", n)
		} else if n == 0 {
			sawDark = true
		}
	}
	if backends[0].placement() != core.Network || backends[2].placement() != core.Host {
		t.Fatalf("swap did not converge: m0=%v m2=%v",
			backends[0].placement(), backends[2].placement())
	}
	if !sawDark {
		t.Fatal("swap never passed through the all-dark step (douse must precede light)")
	}

	snap = ctrl.Snapshot()
	if snap.BudgetViolations != 0 || snap.MaxLit != 1 {
		t.Fatalf("final snapshot: %+v", snap)
	}
	if snap.Energy.ModeledSeconds <= 0 || snap.Energy.SoftwareOnlyKWh <= 0 {
		t.Fatalf("energy account empty: %+v", snap.Energy)
	}
	if len(ctrl.Curve()) != snap.Ticks {
		t.Fatalf("curve has %d points over %d ticks", len(ctrl.Curve()), snap.Ticks)
	}
}

// A member whose engine has closed reads unhealthy and is left out of
// planning; the others are still served.
func TestControllerSurvivesDeadMember(t *testing.T) {
	members := make([]Member, 2)
	backends := make([]*testMember, 1)
	members[0], backends[0] = newTestMember(t, "kvs-0")
	dead, err := StartMember("kvs", "kvs-1")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	members[1] = dead

	ctrl, err := NewController(Config{
		Members:   members,
		Sched:     SchedulerConfig{K: 1, Hold: 1},
		RateScale: 30,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	backends[0].serve(10, 35)
	ctrl.Tick()

	snap := ctrl.Snapshot()
	if snap.Healthy != 1 || snap.Members != 2 {
		t.Fatalf("snapshot = %+v, want 1 healthy of 2", snap)
	}
	var deadRow *MemberStatus
	for i := range snap.Roster {
		if snap.Roster[i].Name == "kvs-1" {
			deadRow = &snap.Roster[i]
		}
	}
	if deadRow == nil || deadRow.Healthy || deadRow.Error == "" {
		t.Fatalf("dead member row = %+v", deadRow)
	}
	// The live member still gets scheduled.
	if backends[0].placement() != core.Network {
		t.Fatal("live member should have been lit despite a dead peer")
	}
}

// The energy account the snapshot reports is the trapezoid of the curve
// the report publishes beside it, on modeled time: wall time between
// ticks scaled by WallScale.
func TestControllerEnergyIsTrapezoidOfCurve(t *testing.T) {
	m, tm := newTestMember(t, "kvs-0")
	const wallScale = 3600
	ctrl, err := NewController(Config{
		Members:   []Member{m},
		Sched:     SchedulerConfig{K: 1, Hold: 1},
		RateScale: 30,
		WallScale: wallScale,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	const pause = 5 * time.Millisecond
	loads := []float64{1, 5, 10, 2, 0.5}
	for _, kpps := range loads {
		tm.serve(kpps, 35)
		time.Sleep(pause)
		ctrl.Tick()
	}

	snap, curve := ctrl.Snapshot(), ctrl.Curve()
	if len(curve) != len(loads) {
		t.Fatalf("curve has %d points over %d ticks", len(curve), len(loads))
	}
	var softJ, ondJ float64
	for i := 1; i < len(curve); i++ {
		dt := curve[i].Seconds - curve[i-1].Seconds
		softJ += (curve[i].SoftwareWatts + curve[i-1].SoftwareWatts) / 2 * dt
		ondJ += (curve[i].OnDemandWatts + curve[i-1].OnDemandWatts) / 2 * dt
	}
	e := snap.Energy
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s = %v, want %v from the curve", name, got, want)
		}
	}
	near("software-only kWh", e.SoftwareOnlyKWh, softJ/3.6e6)
	near("on-demand kWh", e.OnDemandKWh, ondJ/3.6e6)
	near("modeled seconds", e.ModeledSeconds, curve[len(curve)-1].Seconds)
	if least := float64(len(loads)-1) * pause.Seconds() * wallScale; e.ModeledSeconds < least {
		t.Errorf("modeled seconds = %v, want at least %v (wall time x WallScale)", e.ModeledSeconds, least)
	}
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(Config{}); err == nil {
		t.Fatal("empty roster accepted")
	}
	if _, err := NewController(Config{Members: []Member{
		{Name: "a", Kind: "kvs"}, {Name: "a", Kind: "dns"},
	}}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := NewController(Config{Members: []Member{
		{Name: "a", Kind: "mystery"},
	}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := NewController(Config{Members: []Member{
		{Name: "a", Kind: "kvs"},
	}}); err == nil {
		t.Fatal("member without an orchestrator accepted")
	}
}
