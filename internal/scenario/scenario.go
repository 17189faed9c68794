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
	// Strategy (kvs only): "park-reset", "keep-warm", "partial-reconfig".
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
	switch s.App {
	case "kvs", "dns", "paxos":
	default:
		return fmt.Errorf("scenario: app must be kvs, dns or paxos (got %q)", s.App)
	}
	if s.Policy != "" {
		if _, err := core.PolicyByName(s.Policy, 1); err != nil {
			return err
		}
	}
	switch s.Strategy {
	case "", "park-reset", "keep-warm", "partial-reconfig":
	default:
		return fmt.Errorf("scenario: unknown strategy %q", s.Strategy)
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
		switch s.App {
		case "kvs":
			s.CrossoverKpps = 80
		default:
			s.CrossoverKpps = 150
		}
	}
	return nil
}

// rig is the per-app wiring the runner needs.
type rig struct {
	svc      core.Service
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
	r, err := buildRig(s, sim, net)
	if err != nil {
		return nil, err
	}
	if s.Start == "network" {
		if err := r.svc.Shift(core.Network); err != nil {
			return nil, fmt.Errorf("scenario: start placement: %w", err)
		}
	}

	res := &Result{}
	// Policies are curve-calibrated to the app, as in
	// daemon.StartControlPlane.
	var pol core.Policy
	if s.Policy != "" {
		var err error
		if pol, err = core.CalibratedPolicyByName(s.Policy, s.CrossoverKpps, appCurve(s.App)); err != nil {
			return nil, err
		}
	}
	var orch *daemon.Orchestrator
	if pol != nil {
		orch, _ = simhost.Orchestrate(sim, 100*time.Millisecond, daemon.ServiceConfig{
			Service: r.svc,
			Policy:  pol,
			Model:   r.hostTele,
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
		for _, tr := range orch.Transitions(r.svc.Name()) {
			res.Transitions = append(res.Transitions, tr.String())
		}
	}
	return res, nil
}

// appCurve is the calibrated §4 software power curve for an application.
func appCurve(app string) power.SoftwareCurve {
	switch app {
	case "dns":
		return power.NSDServer
	case "paxos":
		return power.LibpaxosLeader
	}
	return power.MemcachedMellanox
}

func buildRig(s Scenario, sim *simnet.Simulator, net *simnet.Network) (*rig, error) {
	switch s.App {
	case "kvs":
		m := simhost.LaKe()
		switch s.Strategy {
		case "keep-warm":
			m.Strategy = simhost.KeepWarm
		case "partial-reconfig":
			m.Strategy = simhost.PartialReconfig
		}
		lake := simhost.NewKVS(net, "lake", m)
		etc := trafficgen.NewETC(sim.Rand(), uint64(s.Keys))
		lake.Preload(s.Keys, 64)
		return nodeRig(lake.Node, lake.Service, simhost.NewClient(net, "client", "lake", &trafficgen.KVS{Key: etc.Keys.Next})), nil
	case "dns":
		zone := dns.NewZone()
		zone.PopulateSequential(s.Keys)
		emu := simhost.NewDNS(net, "emu", zone, simhost.EmuDNS())
		keys := trafficgen.NewZipfKeys(sim.Rand(), uint64(s.Keys), 1.1)
		name := func() string { return dns.SequentialName(int(keys.NextIndex())) }
		return nodeRig(emu.Node, emu.Service, simhost.NewClient(net, "client", "emu", &trafficgen.DNS{Name: name})), nil
	case "paxos":
		dep := simhost.NewPaxos(net, simhost.PaxosConfig{Clients: 1})
		return &rig{
			svc:      dep,
			power:    dep,
			observed: dep.Requests,
			hostTele: func(float64) (float64, float64) {
				w := dep.SWLeader.PowerWatts(sim.Now())
				return w, dep.SWLeader.RateKpps() / 170
			},
			client: dep.Clients[0],
		}, nil
	}
	return nil, fmt.Errorf("scenario: unknown app %q", s.App)
}

// nodeRig wires a simulated card-and-host and its load client into the
// runner.
func nodeRig(n *simhost.Node, svc core.Service, client *simhost.Client) *rig {
	return &rig{
		svc:      svc,
		power:    n,
		observed: n.Observed,
		hostTele: func(float64) (float64, float64) { return n.HostWatts(), n.HostUtilization() },
		client:   client,
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
