package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"incod/internal/core"
	"incod/internal/fpga"
	"incod/internal/power"
	"incod/internal/protocol"
	"incod/internal/telemetry"
)

// Config parameterizes the fleet controller.
type Config struct {
	// Members is the fleet roster.
	Members []Member
	// Sched tunes the budget scheduler (K is the global lit budget).
	Sched SchedulerConfig
	// Period is the planning tick (default 500ms).
	Period time.Duration
	// RateScale maps measured loopback kpps to modeled datacenter kpps
	// (modeled = measured * RateScale; default 1).
	RateScale float64
	// WallScale maps compressed replay wall time back to the trace's
	// native duration for energy integration (default 1).
	WallScale float64
	// Logf receives controller progress lines; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// MemberStatus is one member's row in a fleet snapshot.
type MemberStatus struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	Data      string `json:"data,omitempty"`
	Healthy   bool   `json:"healthy"`
	Placement string `json:"placement,omitempty"`
	Lit       bool   `json:"lit"`
	Shifting  bool   `json:"shifting,omitempty"`
	Shifts    int    `json:"shifts"`
	// Dropped is the member engine's count of datagrams it received and
	// dropped unserved: where a lossy run's requests went, beside the
	// generators' outstanding counts.
	Dropped uint64 `json:"dropped"`

	MeasuredKpps float64 `json:"measured_kpps"`
	ModeledKpps  float64 `json:"modeled_kpps"`
	HitRatio     float64 `json:"hit_ratio"`

	// SoftwareWatts is the software-only fleet's modeled draw for this
	// member; OnDemandWatts is the on-demand fleet's (host residual plus
	// tier); SavingW is the scheduler's light-vs-dark ranking input.
	SoftwareWatts float64 `json:"software_watts"`
	OnDemandWatts float64 `json:"on_demand_watts"`
	SavingW       float64 `json:"saving_w"`

	Error string `json:"error,omitempty"`
}

// EnergyTotals is the fleet's integrated energy account.
type EnergyTotals struct {
	// ModeledSeconds is integrated wall time scaled by WallScale.
	ModeledSeconds float64 `json:"modeled_seconds"`
	// SoftwareOnlyKWh is the modeled energy of a fleet with no NICs.
	SoftwareOnlyKWh float64 `json:"software_only_kwh"`
	// OnDemandKWh is the modeled energy of the budgeted on-demand fleet.
	OnDemandKWh float64 `json:"on_demand_kwh"`
	// SavedKWh and SavedPct compare the two.
	SavedKWh float64 `json:"saved_kwh"`
	SavedPct float64 `json:"saved_pct"`
}

// CurvePoint is one tick of the fleet-wide day-saving curve.
type CurvePoint struct {
	// Seconds is modeled time since the controller started.
	Seconds float64 `json:"seconds"`
	// ModeledKpps is the fleet's total modeled offered rate.
	ModeledKpps float64 `json:"modeled_kpps"`
	// Lit is how many tiers were lit.
	Lit int `json:"lit"`
	// SoftwareWatts / OnDemandWatts are the fleet's modeled draws.
	SoftwareWatts float64 `json:"software_watts"`
	OnDemandWatts float64 `json:"on_demand_watts"`
}

// Snapshot is the /v1/fleet payload.
type Snapshot struct {
	K         int     `json:"k"`
	Members   int     `json:"members"`
	Healthy   int     `json:"healthy"`
	Lit       int     `json:"lit"`
	Ticks     int     `json:"ticks"`
	Shifts    int     `json:"shifts"`
	RateScale float64 `json:"rate_scale"`
	WallScale float64 `json:"wall_scale"`

	// MaxLit is the peak simultaneous lit count ever observed;
	// BudgetViolations counts ticks where it exceeded K, and
	// ConcurrentShiftsMax the most simultaneous in-flight transitions —
	// the scheduler invariants, measured rather than assumed.
	MaxLit              int `json:"max_lit"`
	BudgetViolations    int `json:"budget_violations"`
	ConcurrentShiftsMax int `json:"concurrent_shifts_max"`

	Energy EnergyTotals   `json:"energy"`
	Roster []MemberStatus `json:"roster"`
}

// Controller polls the fleet, integrates the energy account, and applies
// budget scheduler actions as placement pins.
type Controller struct {
	cfg   Config
	sched *Scheduler
	logf  func(string, ...any)

	mu    sync.Mutex // guards everything below
	snap  Snapshot
	curve []CurvePoint
	// The meters observe at modeled time: since startAt, times WallScale.
	startAt  time.Time
	software telemetry.PowerMeter
	onDemand telemetry.PowerMeter
	// lastHit remembers each member's last real measured tier hit ratio,
	// so a parked tier is ranked by what it actually did, not the
	// prediction.
	lastHit map[string]float64
}

// NewController validates cfg and builds a controller. Member names must
// be unique, kinds known and orchestrators present.
func NewController(cfg Config) (*Controller, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("fleet: no members")
	}
	if cfg.Period <= 0 {
		cfg.Period = 500 * time.Millisecond
	}
	if cfg.RateScale <= 0 {
		cfg.RateScale = 1
	}
	if cfg.WallScale <= 0 {
		cfg.WallScale = 1
	}
	seen := make(map[string]bool, len(cfg.Members))
	for i := range cfg.Members {
		m := &cfg.Members[i]
		if m.Name == "" || seen[m.Name] {
			return nil, fmt.Errorf("fleet: member %d needs a unique name (%q)", i, m.Name)
		}
		seen[m.Name] = true
		row, err := protocol.Lookup(m.Kind)
		if err != nil {
			return nil, fmt.Errorf("fleet: member %q: %w", m.Name, err)
		}
		if m.Orch == nil {
			return nil, fmt.Errorf("fleet: member %q has no orchestrator", m.Name)
		}
		m.row = row
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	c := &Controller{
		cfg:     cfg,
		sched:   NewScheduler(cfg.Sched),
		logf:    logf,
		lastHit: make(map[string]float64, len(cfg.Members)),
	}
	c.snap = Snapshot{
		K:         c.sched.Config().K,
		Members:   len(cfg.Members),
		RateScale: cfg.RateScale,
		WallScale: cfg.WallScale,
	}
	return c, nil
}

// Run ticks the controller until ctx is done.
func (c *Controller) Run(ctx context.Context) {
	tick := time.NewTicker(c.cfg.Period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			c.Tick()
		}
	}
}

// sample is one member's polled state.
type sample struct {
	status MemberStatus
	cand   Candidate
}

// Tick performs one poll + account + plan + apply round. Applying a
// planned action is synchronous — the pin returns only after the
// member's transition task lands — which, combined with the scheduler
// emitting at most one action per tick, staggers migrations fleet-wide.
func (c *Controller) Tick() {
	now := time.Now()
	c.mu.Lock()
	samples := make([]sample, len(c.cfg.Members))
	for i := range c.cfg.Members {
		samples[i] = c.pollLocked(&c.cfg.Members[i])
	}
	if c.startAt.IsZero() {
		c.startAt = now
	}
	modeled := time.Duration(float64(now.Sub(c.startAt)) * c.cfg.WallScale)

	var (
		cands                  []Candidate
		roster                 = make([]MemberStatus, len(samples))
		softW                  float64
		ondW                   float64
		fleetKpps              float64
		lit, healthy, shifting int
	)
	for i, s := range samples {
		roster[i] = s.status
		if !s.status.Healthy {
			continue
		}
		healthy++
		if s.status.Lit {
			lit++
		}
		if s.status.Shifting {
			shifting++
		}
		softW += s.status.SoftwareWatts
		ondW += s.status.OnDemandWatts
		fleetKpps += s.status.ModeledKpps
		cands = append(cands, s.cand)
	}
	c.software.Observe(modeled, softW)
	c.onDemand.Observe(modeled, ondW)

	c.snap.Roster = roster
	c.snap.Healthy = healthy
	c.snap.Lit = lit
	c.snap.Ticks++
	if lit > c.snap.MaxLit {
		c.snap.MaxLit = lit
	}
	if lit > c.snap.K {
		c.snap.BudgetViolations++
	}
	if shifting > c.snap.ConcurrentShiftsMax {
		c.snap.ConcurrentShiftsMax = shifting
	}
	c.snap.Energy = c.energyLocked()
	c.curve = append(c.curve, CurvePoint{
		Seconds:       c.snap.Energy.ModeledSeconds,
		ModeledKpps:   fleetKpps,
		Lit:           lit,
		SoftwareWatts: softW,
		OnDemandWatts: ondW,
	})

	action, ok := c.sched.Plan(cands)
	c.mu.Unlock()
	if !ok {
		return
	}
	c.apply(action)
}

func (c *Controller) energyLocked() EnergyTotals {
	e := EnergyTotals{
		ModeledSeconds:  c.software.Elapsed().Seconds(),
		SoftwareOnlyKWh: c.software.KWh(),
		OnDemandKWh:     c.onDemand.KWh(),
	}
	e.SavedKWh = e.SoftwareOnlyKWh - e.OnDemandKWh
	e.SavedPct = 100 * power.Saving(e.SoftwareOnlyKWh, e.OnDemandKWh)
	return e
}

// apply pins the planned member and records the outcome.
func (c *Controller) apply(a Action) {
	var target *Member
	for i := range c.cfg.Members {
		if c.cfg.Members[i].Name == a.Member {
			target = &c.cfg.Members[i]
			break
		}
	}
	if target == nil {
		return
	}
	placement := core.Network
	if a.Kind == Douse {
		placement = core.Host
	}
	start := time.Now()
	if err := target.Orch.Pin(placement); err != nil {
		c.logf("fleet: %s %s failed: %v", a.Kind, a.Member, err)
		return
	}
	c.logf("fleet: %s %s in %v (%s)", a.Kind, a.Member,
		time.Since(start).Round(time.Microsecond), a.Reason)
	c.mu.Lock()
	c.snap.Shifts++
	c.mu.Unlock()
}

// pollLocked reads one member's orchestrator and models its power draws.
// A member whose engine is not serving reads unhealthy and is left out of
// planning.
func (c *Controller) pollLocked(m *Member) sample {
	st := MemberStatus{Name: m.Name, Kind: m.Kind, Data: m.Data}
	svc, err := m.Orch.Status()
	if err == nil && !m.Orch.Ready() {
		err = errors.New("engine not serving")
	}
	if err != nil {
		st.Error = err.Error()
		return sample{status: st, cand: Candidate{Name: m.Name}}
	}
	st.Healthy = true
	st.Placement = svc.Placement
	st.Lit = svc.Placement == "network"
	st.Shifting = svc.Shifting
	st.Shifts = svc.Shifts
	st.MeasuredKpps = svc.WindowKpps
	st.ModeledKpps = svc.WindowKpps * c.cfg.RateScale

	// Dataplane stats carry the tier's measured hit ratio and power; a
	// member may legitimately lack an attached engine (advisory), in
	// which case predictions stand in.
	// A dark tier is ranked on its design's modeled draw.
	hit, tierW := m.row.HitRatio, fpga.NewBoard(m.row.Design).CardWatts(0.5)
	measuredHit := false
	if dp, err := m.Orch.Dataplane(); err == nil {
		st.Dropped = dp.Dropped
		if dp.TierName != "" && dp.TierHitRatio > 0 {
			c.lastHit[m.Name] = dp.TierHitRatio
			hit, measuredHit = dp.TierHitRatio, true
		}
		if st.Lit && dp.TierPowerWatts > 0 {
			tierW = dp.TierPowerWatts
		}
	}
	if !measuredHit {
		if h, ok := c.lastHit[m.Name]; ok {
			hit = h
		}
	}
	st.HitRatio = hit

	curve := m.row.Curve
	modeled := st.ModeledKpps
	residual := modeled * (1 - hit)

	// Software-only fleet: the host serves everything, no card at all.
	st.SoftwareWatts = curve.Power(modeled)
	// On-demand fleet: lit members serve the residual on the host and
	// pay the active tier; dark members serve everything on the host. A
	// dark member's parked card adds nothing: the §9.2
	// partial-reconfiguration strategy parks it as the reference NIC the
	// §4 idle figure already includes, matching the min(sw, hw) on-demand
	// envelope of internal/cluster.
	darkW := curve.Power(modeled)
	litW := curve.Power(residual) + tierW
	if st.Lit {
		st.OnDemandWatts = litW
	} else {
		st.OnDemandWatts = darkW
	}
	// The scheduler ranks by what lighting would change within the
	// on-demand fleet.
	st.SavingW = darkW - litW

	return sample{
		status: st,
		cand: Candidate{
			Name:     m.Name,
			Lit:      st.Lit,
			Shifting: st.Shifting,
			SavingW:  st.SavingW,
		},
	}
}

// Snapshot returns the latest fleet snapshot.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	s := c.snap
	s.Roster = append([]MemberStatus(nil), c.snap.Roster...)
	c.mu.Unlock()
	return s
}

// Curve returns the accumulated day-saving curve points.
func (c *Controller) Curve() []CurvePoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CurvePoint(nil), c.curve...)
}

// AdoptAll pins every member's service to the host so the fleet starts
// dark and only lights what the budget grants. It returns the first
// error but tries every member.
func (c *Controller) AdoptAll() error {
	var first error
	for _, m := range c.cfg.Members {
		if err := m.Orch.Pin(core.Host); err != nil && first == nil {
			first = fmt.Errorf("fleet: adopt %s: %w", m.Name, err)
		}
	}
	return first
}

// Handler serves GET /v1/fleet (the snapshot) and GET /v1/fleet/curve.
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		writeFleetJSON(w, c.Snapshot())
	})
	mux.HandleFunc("GET /v1/fleet/curve", func(w http.ResponseWriter, r *http.Request) {
		writeFleetJSON(w, c.Curve())
	})
	return mux
}

func writeFleetJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
