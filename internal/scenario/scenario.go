// Package scenario runs user-defined what-if simulations: a JSON scenario
// picks an application (kvs/dns/paxos), a placement policy (or none), an
// idle strategy and an offered-load profile; the runner executes it in
// virtual time — the app on internal/simhost, placed by the daemons'
// orchestrator on the simulator's clock — and emits a timeline
// (throughput, latency, power, placement) plus the transition log. It
// is the front door for exploring the paper's design space beyond
// the figures the harness reproduces.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dns"
	"incod/internal/power"
	"incod/internal/protocol"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/telemetry"
	"incod/internal/trafficgen"
)

// Scenario is the JSON input.
type Scenario struct {
	// App: "kvs", "dns" or "paxos".
	App string `json:"app"`
	// Policy names the core placement policy, as the daemons' -policy
	// flag does: threshold (the paper's network-side controller, on rate
	// thresholds), power (the host-side one, on power and CPU),
	// static-host or static-network. Empty keeps the Start placement.
	Policy string `json:"policy"`
	// Start placement: "host" (default) or "network".
	Start string `json:"start"`
	// CrossoverKpps seeds the policy thresholds (defaults per app).
	CrossoverKpps float64 `json:"crossover_kpps"`
	// Strategy: "park-reset", "keep-warm", "partial-reconfig" — how the
	// card parks while the host serves. Only a card with external
	// memories (kvs's) takes one.
	Strategy string `json:"strategy"`
	// Seed for the deterministic simulator. Default 1.
	Seed int64 `json:"seed"`
	// SampleMs is the timeline sampling period. Default 500.
	SampleMs int `json:"sample_ms"`
	// Profile is the offered-load schedule.
	Profile []Segment `json:"profile"`
	// Keys is the KVS/DNS key-space size. Default 1000.
	Keys int `json:"keys"`
}

// Segment is one profile step.
type Segment struct {
	DurationS float64 `json:"duration_s"`
	Kpps      float64 `json:"kpps"`
}

// Sample is one timeline row.
type Sample struct {
	TMs       float64 `json:"t_ms"`
	Offered   float64 `json:"offered_kpps"`
	Served    float64 `json:"served_kpps"`
	P50Us     float64 `json:"p50_us"`
	PowerW    float64 `json:"power_w"`
	Placement string  `json:"placement"`
}

// Result is the runner's output.
type Result struct {
	Samples     []Sample `json:"samples"`
	Transitions []string `json:"transitions"`
	TotalKWh    float64  `json:"total_kwh"`
	ServedFrac  float64  `json:"served_frac"`
}

// Parse decodes and validates a JSON scenario.
func Parse(data []byte) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // a misspelt or retired key is not silently a default
	err := dec.Decode(&s)
	if err == nil && dec.More() {
		err = errors.New("data after the scenario object")
	}
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	return s, s.validate()
}

func (s *Scenario) validate() error {
	row, err := protocol.Lookup(s.App)
	if err != nil {
		return fmt.Errorf("scenario: app: %w", err)
	}
	if s.Policy != "" {
		if _, err := core.PolicyByName(s.Policy, 1); err != nil {
			return err
		}
	}
	if s.Start != "" {
		if _, err := core.ParsePlacement(s.Start); err != nil {
			return fmt.Errorf("scenario: start: %w", err)
		}
	}
	if _, ok := strategies[s.Strategy]; !ok {
		return fmt.Errorf("scenario: unknown strategy %q", s.Strategy)
	}
	// §9.2's idle strategies trade the card's external memories' state
	// against their power; a design without them has nothing to trade.
	if s.Strategy != "" && !row.Design.UsesDRAM {
		return fmt.Errorf("scenario: strategy %q: the %s card keeps no external memory to park", s.Strategy, s.App)
	}
	if len(s.Profile) == 0 {
		return fmt.Errorf("scenario: empty load profile")
	}
	for i, seg := range s.Profile {
		if seg.DurationS <= 0 || seg.Kpps < 0 {
			return fmt.Errorf("scenario: profile[%d] invalid", i)
		}
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.SampleMs <= 0 {
		s.SampleMs = 500
	}
	if s.Keys <= 0 {
		s.Keys = 1000
	}
	if s.CrossoverKpps <= 0 {
		s.CrossoverKpps = row.CrossKpps
	}
	return nil
}

// strategies are the idle strategies by name ("" is the paper's choice).
var strategies = map[string]simhost.IdleStrategy{"": simhost.ParkReset,
	"park-reset": simhost.ParkReset, "keep-warm": simhost.KeepWarm, "partial-reconfig": simhost.PartialReconfig}

// rig is the per-app wiring the runner needs.
type rig struct {
	svc      core.Service
	curve    power.SoftwareCurve // what the policy is calibrated on
	power    telemetry.PowerSource
	observed func() uint64     // device-observed application requests, monotonic
	hostTele daemon.PowerModel // host watts and CPU; the rate argument is unused
	client   *simhost.Client
}

// Run executes the scenario.
func Run(s Scenario) (*Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	sim := simnet.New(s.Seed)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	r := buildRig(s, sim, net)
	if s.Start == "network" {
		if err := r.svc.Shift(core.Network); err != nil {
			return nil, fmt.Errorf("scenario: start placement: %w", err)
		}
	}

	res := &Result{}
	var orch *daemon.Orchestrator
	if s.Policy != "" {
		// Policies are curve-calibrated to the metered role, as in
		// daemon.StartControlPlane.
		pol, err := core.CalibratedPolicyByName(s.Policy, s.CrossoverKpps, r.curve)
		if err != nil {
			return nil, err
		}
		orch, _ = simhost.Orchestrate(sim, 100*time.Millisecond, daemon.ServiceConfig{
			Service: r.svc, Policy: pol, Model: r.hostTele,
		}, r.observed)
	}

	// Schedule the load profile.
	profile := make(trafficgen.Profile, len(s.Profile))
	for i, seg := range s.Profile {
		profile[i] = trafficgen.Hold(seg.Kpps*1000, time.Duration(seg.DurationS*float64(time.Second)))
	}
	r.client.Run(profile)

	meter := telemetry.NewPowerMeter(sim, r.power, 10*time.Millisecond)
	interval := time.Duration(s.SampleMs) * time.Millisecond
	total := profile.Total()
	var lastServed uint64
	var offeredTotal float64
	for t := time.Duration(0); t < total; t += interval {
		sim.RunFor(interval)
		served := r.client.Counters.Get("recv")
		offered := profile.Rate(t) / 1000
		offeredTotal += offered * 1000 * interval.Seconds()
		res.Samples = append(res.Samples, Sample{
			TMs:       sim.Now().Seconds() * 1000,
			Offered:   offered,
			Served:    float64(served-lastServed) / interval.Seconds() / 1000,
			P50Us:     float64(r.client.Latency.Median()) / 1000,
			PowerW:    r.power.PowerWatts(sim.Now()),
			Placement: r.svc.Placement().String(),
		})
		r.client.Latency.Reset()
		lastServed = served
	}
	r.client.Stop()
	sim.RunFor(200 * time.Millisecond)

	res.TotalKWh = meter.KWh()
	if offeredTotal > 0 {
		res.ServedFrac = float64(r.client.Counters.Get("recv")) / offeredTotal
	}
	if orch != nil {
		for _, tr := range orch.Transitions() {
			res.Transitions = append(res.Transitions, tr.String())
		}
	}
	return res, nil
}

// buildRig wires a validated scenario's app onto the network.
func buildRig(s Scenario, sim *simnet.Simulator, net *simnet.Network) *rig {
	row, _ := protocol.Lookup(s.App)
	if row.Name == protocol.Paxos.Name {
		// The whole deployment, metered at the leader: its role is the one
		// a shift moves.
		dep := simhost.NewPaxos(net, simhost.PaxosConfig{Clients: 1})
		return &rig{
			svc:      dep,
			curve:    power.LibpaxosLeader,
			power:    dep,
			observed: dep.Requests,
			hostTele: func(float64) (float64, float64) {
				w := dep.SWLeader.PowerWatts(sim.Now())
				return w, dep.SWLeader.RateKpps() / 170
			},
			client: dep.Clients[0],
		}
	}

	m := simhost.PaperModel(row.Design)
	m.Strategy = strategies[s.Strategy]
	st := simhost.NewStack(net, "server", row, protocol.Options{Names: s.Keys}, m)
	// The app draws on the state the row serves: the store's keys, ETC
	// popular, or the zone's names, Zipf popular.
	var app trafficgen.App
	if st.Store != nil {
		etc := trafficgen.NewETC(sim.Rand(), uint64(s.Keys))
		st.Preload(s.Keys, 64)
		app = &trafficgen.KVS{Key: etc.Keys.Next}
	} else {
		keys := trafficgen.NewZipfKeys(sim.Rand(), uint64(s.Keys), 1.1)
		app = &trafficgen.DNS{Name: func() string { return dns.SequentialName(int(keys.NextIndex())) }}
	}
	return &rig{
		svc:      st.Service,
		curve:    row.Curve,
		power:    st.Node,
		observed: st.Observed,
		hostTele: func(float64) (float64, float64) { return st.HostWatts(), st.HostUtilization() },
		client:   simhost.NewClient(net, "client", "server", app),
	}
}

// CSV renders the result timeline.
func (r *Result) CSV() string {
	out := "t_ms,offered_kpps,served_kpps,p50_us,power_w,placement\n"
	for _, s := range r.Samples {
		out += fmt.Sprintf("%.0f,%.3g,%.3g,%.3g,%.4g,%s\n",
			s.TMs, s.Offered, s.Served, s.P50Us, s.PowerW, s.Placement)
	}
	for _, tr := range r.Transitions {
		out += fmt.Sprintf("# transition: %s\n", tr)
	}
	out += fmt.Sprintf("# total %.4g kWh, served %.1f%% of offered\n", r.TotalKWh, r.ServedFrac*100)
	return out
}
