package core

import (
	"fmt"
	"math"
	"time"

	"incod/internal/power"
)

// Sample is one observation fed to a Policy: the monotonic time it was
// taken, where the service currently runs, and the monitor readings
// available at that moment. Monitors that are not attached (e.g. RAPL on
// a daemon with no power counters) are NaN.
type Sample struct {
	// At is monotonic time since the control loop's first tick (virtual
	// time in the simulator, wall time in the live daemons).
	At time.Duration
	// Placement is where the service runs at sampling time.
	Placement Placement
	// RateKpps is the application message rate seen by the device or
	// request meter.
	RateKpps float64
	// PowerW is the host package power (RAPL or a model). NaN if absent.
	PowerW float64
	// CPUUtil is the host CPU utilization in 0..1. NaN if absent.
	CPUUtil float64
}

// Decision is a Policy's verdict for one sample. The zero value means
// "stay put".
type Decision struct {
	// Shift requests a placement change to Target.
	Shift bool
	// Target is the requested placement when Shift is set.
	Target Placement
	// Reason explains the decision, for the transition log.
	Reason string
}

// Policy is a pluggable placement decision rule: the §9.1 controller
// kernels, run by daemon.Orchestrator on either clock. Implementations
// are not safe for concurrent use; callers serialize Observe/Reset.
type Policy interface {
	// Name identifies the policy ("threshold", "power", "static-host"...).
	Name() string
	// Observe folds one sample into the policy state and returns the
	// placement decision.
	Observe(Sample) Decision
	// Reset clears windowed state. Callers invoke it after a decision has
	// been successfully applied, so the mirrored rule evaluates fresh data
	// (the hysteresis restart of §9.1).
	Reset()
}

// Tunable is an optional Policy extension for the mirrored rate-threshold
// pair that the control-plane API adjusts at runtime ("all of its
// parameters are configurable").
type Tunable interface {
	// RateThresholds reports the (to-network, to-host) pair in kpps.
	RateThresholds() (toNetworkKpps, toHostKpps float64)
	// SetRateThresholds updates the pair. Zero keeps the current value;
	// NaN, infinite or negative inputs are rejected. When the resulting
	// to-host threshold would meet or exceed the to-network one, it is
	// clamped below it to preserve hysteresis and clamped reports that.
	SetRateThresholds(toNetworkKpps, toHostKpps float64) (clamped bool, err error)
}

// --- mirrored-threshold policy --------------------------------------------

// NetworkControllerConfig holds the two mirrored parameter pairs of the
// §9.1 network-controlled design, i.e. the ThresholdPolicy parameters.
// "Using two sets of parameters provides hysteresis, and attends to
// concerns of rapidly shifting workloads back-and-forth."
type NetworkControllerConfig struct {
	// ToNetworkKpps: shift to the network when the average rate over
	// ToNetworkWindow exceeds this.
	ToNetworkKpps   float64
	ToNetworkWindow time.Duration
	// ToHostKpps: shift back when the average rate over ToHostWindow
	// falls below this. Must be below ToNetworkKpps for hysteresis.
	ToHostKpps   float64
	ToHostWindow time.Duration
}

// DefaultNetworkConfig returns thresholds bracketing a crossover rate,
// with the paper-style hysteresis gap.
func DefaultNetworkConfig(crossKpps float64) NetworkControllerConfig {
	return NetworkControllerConfig{
		ToNetworkKpps:   crossKpps * 1.1,
		ToNetworkWindow: time.Second,
		ToHostKpps:      crossKpps * 0.7,
		ToHostWindow:    2 * time.Second,
	}
}

// ThresholdPolicy is the §9.1 network-controlled decision kernel: average
// the application message rate over a window, shift to the network above
// one threshold, back to the host below a mirrored lower one. "Using two
// sets of parameters provides hysteresis, and attends to concerns of
// rapidly shifting workloads back-and-forth."
type ThresholdPolicy struct {
	cfg     NetworkControllerConfig
	samples []rateSample
	// since is the first sample time after the last Reset. Window
	// fullness is judged against it rather than the oldest retained
	// sample: trimming works in wall time, where jitter would otherwise
	// leave the oldest sample perpetually just inside the window and the
	// "full window" condition never satisfied.
	since    time.Duration
	hasSince bool
}

type rateSample struct {
	at   time.Duration
	kpps float64
}

// NewThresholdPolicy returns the mirrored-threshold policy; a missing
// window defaults to one second, a missing to-host window to the
// to-network one.
func NewThresholdPolicy(cfg NetworkControllerConfig) *ThresholdPolicy {
	if cfg.ToNetworkWindow <= 0 {
		cfg.ToNetworkWindow = time.Second
	}
	if cfg.ToHostWindow <= 0 {
		cfg.ToHostWindow = cfg.ToNetworkWindow
	}
	return &ThresholdPolicy{cfg: cfg}
}

// Name implements Policy.
func (p *ThresholdPolicy) Name() string { return "threshold" }

// Observe implements Policy: the ~40-line classifier kernel.
func (p *ThresholdPolicy) Observe(s Sample) Decision {
	if !p.hasSince {
		p.since, p.hasSince = s.At, true
	}
	p.samples = append(p.samples, rateSample{at: s.At, kpps: s.RateKpps})
	// Trim beyond the longer window.
	keep := p.cfg.ToNetworkWindow
	if p.cfg.ToHostWindow > keep {
		keep = p.cfg.ToHostWindow
	}
	for len(p.samples) > 1 && s.At-p.samples[0].at > keep {
		p.samples = p.samples[1:]
	}
	switch s.Placement {
	case Host:
		if avg, full := p.average(s.At, p.cfg.ToNetworkWindow); full && avg > p.cfg.ToNetworkKpps {
			return Decision{Shift: true, Target: Network,
				Reason: fmt.Sprintf("avg rate %.1f kpps above to-network threshold", avg)}
		}
	case Network:
		if avg, full := p.average(s.At, p.cfg.ToHostWindow); full && avg < p.cfg.ToHostKpps {
			return Decision{Shift: true, Target: Host,
				Reason: fmt.Sprintf("avg rate %.1f kpps below to-host threshold", avg)}
		}
	}
	return Decision{}
}

// average returns the mean rate over the trailing window and whether the
// window has fully elapsed (no decisions on partial windows).
func (p *ThresholdPolicy) average(now time.Duration, w time.Duration) (float64, bool) {
	var sum float64
	n := 0
	for _, s := range p.samples {
		if now-s.at <= w {
			sum += s.kpps
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), now-p.since >= w
}

// Reset implements Policy: restart the averaging window.
func (p *ThresholdPolicy) Reset() {
	p.samples = p.samples[:0]
	p.hasSince = false
}

// RateThresholds implements Tunable.
func (p *ThresholdPolicy) RateThresholds() (float64, float64) {
	return p.cfg.ToNetworkKpps, p.cfg.ToHostKpps
}

// SetRateThresholds implements Tunable.
func (p *ThresholdPolicy) SetRateThresholds(toNet, toHost float64) (bool, error) {
	if err := validKpps("to_network_kpps", toNet); err != nil {
		return false, err
	}
	if err := validKpps("to_host_kpps", toHost); err != nil {
		return false, err
	}
	if toNet > 0 {
		p.cfg.ToNetworkKpps = toNet
	}
	if toHost > 0 {
		p.cfg.ToHostKpps = toHost
	}
	clamped := false
	if p.cfg.ToHostKpps >= p.cfg.ToNetworkKpps {
		p.cfg.ToHostKpps = p.cfg.ToNetworkKpps * 0.7
		clamped = true
	}
	return clamped, nil
}

func validKpps(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%s must be a finite non-negative rate (got %v)", name, v)
	}
	return nil
}

// --- power-aware policy ---------------------------------------------------

// HostControllerConfig holds the §9.1 host-controlled parameters, i.e.
// the PowerPolicy parameters: one set for shifting to the network (power +
// CPU, sustained) and one for shifting back (network-observed rate,
// sustained).
type HostControllerConfig struct {
	// ToNetworkPowerWatts: RAPL package power that must be exceeded...
	ToNetworkPowerWatts float64
	// ToNetworkCPUUtil: ...together with this CPU utilization ("monitoring
	// the power consumption alone is not sufficient, as a high power
	// consumption can be triggered by multiple applications").
	ToNetworkCPUUtil float64
	// ToNetworkSustain is how long both must hold ("the information is
	// inspected over time, avoiding harsh decisions based on spikes and
	// outliers"). Figure 6 uses three seconds.
	ToNetworkSustain time.Duration
	// ToHostKpps: shift back when the device-reported application rate
	// stays below this ("the controller needs information from the
	// network ... otherwise the shift may ... bounce back and forth").
	ToHostKpps float64
	// ToHostSustain is the mirrored sustain window.
	ToHostSustain time.Duration
}

// DefaultHostConfig returns the Figure 6 parameters: 3 s sustained high
// power+CPU to offload, mirrored to return.
func DefaultHostConfig(powerWatts, toHostKpps float64) HostControllerConfig {
	return HostControllerConfig{
		ToNetworkPowerWatts: powerWatts,
		ToNetworkCPUUtil:    0.7,
		ToNetworkSustain:    3 * time.Second,
		ToHostKpps:          toHostKpps,
		ToHostSustain:       3 * time.Second,
	}
}

// PowerPolicy is the §9.1 host-controlled decision kernel: shift to the
// network when RAPL package power and CPU utilization stay high for a
// sustained period ("monitoring the power consumption alone is not
// sufficient"), shift back when the device-observed rate stays low.
type PowerPolicy struct {
	cfg  HostControllerConfig
	cond sustained
}

// NewPowerPolicy returns the power-aware policy; a missing sustain
// defaults to the Figure 6 three seconds, mirrored.
func NewPowerPolicy(cfg HostControllerConfig) *PowerPolicy {
	if cfg.ToNetworkSustain <= 0 {
		cfg.ToNetworkSustain = 3 * time.Second
	}
	if cfg.ToHostSustain <= 0 {
		cfg.ToHostSustain = cfg.ToNetworkSustain
	}
	return &PowerPolicy{cfg: cfg}
}

// Name implements Policy.
func (p *PowerPolicy) Name() string { return "power" }

// Observe implements Policy.
func (p *PowerPolicy) Observe(s Sample) Decision {
	switch s.Placement {
	case Host:
		hot := s.PowerW > p.cfg.ToNetworkPowerWatts && s.CPUUtil > p.cfg.ToNetworkCPUUtil
		if p.cond.held(hot, s.At, p.cfg.ToNetworkSustain) {
			return Decision{Shift: true, Target: Network,
				Reason: fmt.Sprintf("power %.1fW cpu %.0f%% sustained %v",
					s.PowerW, s.CPUUtil*100, p.cfg.ToNetworkSustain)}
		}
	case Network:
		cold := s.RateKpps < p.cfg.ToHostKpps
		if p.cond.held(cold, s.At, p.cfg.ToHostSustain) {
			return Decision{Shift: true, Target: Host,
				Reason: fmt.Sprintf("network rate %.1f kpps sustained %v below threshold",
					s.RateKpps, p.cfg.ToHostSustain)}
		}
	}
	return Decision{}
}

// sustained tracks how long a condition has held continuously — the
// paper's spike suppression ("avoiding harsh decisions based on spikes and
// outliers").
type sustained struct {
	on    bool
	since time.Duration
}

// held folds in cond at time now and reports whether it has been true
// for at least sustain.
func (c *sustained) held(cond bool, now, sustain time.Duration) bool {
	if !cond {
		c.on = false
		return false
	}
	if !c.on {
		c.on, c.since = true, now
		return sustain == 0
	}
	return now-c.since >= sustain
}

// Reset implements Policy.
func (p *PowerPolicy) Reset() { p.cond.on = false }

// RateThresholds implements Tunable. The power policy has no to-network
// rate threshold (that side triggers on watts + CPU), reported as zero.
func (p *PowerPolicy) RateThresholds() (float64, float64) {
	return 0, p.cfg.ToHostKpps
}

// SetRateThresholds implements Tunable: only the to-host return rate is
// a rate parameter on this policy.
func (p *PowerPolicy) SetRateThresholds(toNet, toHost float64) (bool, error) {
	if toNet != 0 {
		return false, fmt.Errorf("power policy has no to-network rate threshold (it triggers on watts + CPU); only to_host_kpps is tunable")
	}
	if err := validKpps("to_host_kpps", toHost); err != nil {
		return false, err
	}
	if toHost > 0 {
		p.cfg.ToHostKpps = toHost
	}
	return false, nil
}

// --- host-side return rule --------------------------------------------------

// ReturnWhen replaces p's way back to the host: on the network p is not
// consulted, and the service returns once quiet has held for sustain. It
// is the §9.2 experiment's rule — the KVS shifts back "as ChainerMN
// stops", a condition of the host that no rate threshold expresses.
func ReturnWhen(p Policy, quiet func() bool, sustain time.Duration, reason string) Policy {
	return &returnWhen{Policy: p, quiet: quiet, sustain: sustain, reason: reason}
}

type returnWhen struct {
	Policy
	quiet   func() bool
	sustain time.Duration
	reason  string
	cond    sustained
}

// Observe implements Policy.
func (p *returnWhen) Observe(s Sample) Decision {
	if s.Placement != Network {
		return p.Policy.Observe(s)
	}
	if p.cond.held(p.quiet(), s.At, p.sustain) {
		return Decision{Shift: true, Target: Host, Reason: p.reason}
	}
	return Decision{}
}

// Reset implements Policy.
func (p *returnWhen) Reset() {
	p.Policy.Reset()
	p.cond.on = false
}

// --- static/manual policy -------------------------------------------------

// StaticPolicy pins the service to one placement: the manual end of "the
// control is not entirely automatic". The control-plane placement endpoint
// is its runtime counterpart.
type StaticPolicy struct {
	// Target is the pinned placement.
	Target Placement
}

// Name implements Policy.
func (p *StaticPolicy) Name() string { return "static-" + p.Target.String() }

// Observe implements Policy.
func (p *StaticPolicy) Observe(s Sample) Decision {
	if s.Placement == p.Target {
		return Decision{}
	}
	return Decision{Shift: true, Target: p.Target,
		Reason: "static policy pins service to " + p.Target.String()}
}

// Reset implements Policy.
func (p *StaticPolicy) Reset() {}

// --- registry -------------------------------------------------------------

// DefaultPowerThresholdWatts is the to-network package-power trigger the
// named "power" policy uses when no calibrated curve is supplied — the
// Figure 6 experiment's 70 W.
const DefaultPowerThresholdWatts = 70

// PolicyNames lists the names PolicyByName accepts.
func PolicyNames() []string {
	return []string{"threshold", "power", "static-host", "static-network"}
}

// PolicyByName builds a named policy with defaults bracketing crossKpps,
// the software/hardware power crossover rate:
//
//	threshold       mirrored rate thresholds (§9.1 network-controlled)
//	power           RAPL power + CPU sustain (§9.1 host-controlled)
//	static-host     manual pin to host software
//	static-network  manual pin to the network device
func PolicyByName(name string, crossKpps float64) (Policy, error) {
	switch name {
	case "threshold":
		return NewThresholdPolicy(DefaultNetworkConfig(crossKpps)), nil
	case "power":
		return NewPowerPolicy(DefaultHostConfig(DefaultPowerThresholdWatts, crossKpps*0.7)), nil
	case "static-host":
		return &StaticPolicy{Target: Host}, nil
	case "static-network":
		return &StaticPolicy{Target: Network}, nil
	}
	return nil, fmt.Errorf("core: unknown policy %q (have %v)", name, PolicyNames())
}

// CalibratedPolicyByName is PolicyByName with the power policy's
// package-power trigger taken from the workload's calibrated §4 software
// curve at the crossover rate — the fixed DefaultPowerThresholdWatts is
// unreachable for low-draw curves like libpaxos (~49 W peak). The live
// daemons build their policies through this, and so does the simulated
// run of examples/dns_ondemand.
func CalibratedPolicyByName(name string, crossKpps float64, curve power.SoftwareCurve) (Policy, error) {
	if name == "power" {
		return NewPowerPolicy(DefaultHostConfig(curve.Power(crossKpps), crossKpps*0.7)), nil
	}
	return PolicyByName(name, crossKpps)
}

// ParsePlacement parses "host" or "network".
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "host":
		return Host, nil
	case "network":
		return Network, nil
	}
	return Host, fmt.Errorf("core: placement must be \"host\" or \"network\" (got %q)", s)
}
