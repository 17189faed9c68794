package core

import (
	"math"
	"testing"
	"time"
)

// feed drives a policy with a constant-rate sample stream and returns the
// first shift decision, if any.
func feed(p Policy, from Placement, kpps float64, start, d, step time.Duration) (Decision, time.Duration) {
	for at := start; at <= start+d; at += step {
		if dec := p.Observe(Sample{At: at, Placement: from, RateKpps: kpps}); dec.Shift {
			return dec, at
		}
	}
	return Decision{}, 0
}

func TestThresholdPolicyKernel(t *testing.T) {
	p := NewThresholdPolicy(NetworkControllerConfig{
		ToNetworkKpps: 100, ToNetworkWindow: time.Second,
		ToHostKpps: 50, ToHostWindow: time.Second,
	})
	if p.Name() != "threshold" {
		t.Errorf("name = %q", p.Name())
	}
	// Low rate: no decision.
	if d, _ := feed(p, Host, 20, 0, 3*time.Second, 100*time.Millisecond); d.Shift {
		t.Fatalf("low rate decided %+v", d)
	}
	// Sustained high rate: to network.
	d, at := feed(p, Host, 200, 3*time.Second, 2*time.Second, 100*time.Millisecond)
	if !d.Shift || d.Target != Network {
		t.Fatalf("sustained high rate -> %+v", d)
	}
	p.Reset()
	// Hysteresis band from the network side: holds.
	if d, _ := feed(p, Network, 80, at, 5*time.Second, 100*time.Millisecond); d.Shift {
		t.Fatalf("hysteresis band decided %+v", d)
	}
	p.Reset()
	// Low rate from the network side: back to host.
	if d, _ := feed(p, Network, 10, at, 3*time.Second, 100*time.Millisecond); !d.Shift || d.Target != Host {
		t.Fatal("low sustained rate should return to host")
	}
}

func TestPowerPolicyIgnoresMissingMonitors(t *testing.T) {
	p := NewPowerPolicy(DefaultHostConfig(55, 50))
	// NaN power/CPU (no RAPL attached) must never trigger the offload.
	for at := time.Duration(0); at < 10*time.Second; at += 100 * time.Millisecond {
		d := p.Observe(Sample{At: at, Placement: Host,
			RateKpps: 500, PowerW: math.NaN(), CPUUtil: math.NaN()})
		if d.Shift {
			t.Fatalf("NaN monitors decided %+v", d)
		}
	}
}

// ReturnWhen leaves the way out to the wrapped policy and replaces the way
// back: the wrapped return rule (here: rate below 50 kpps) is not
// consulted, the condition must hold for the whole sustain, and a Reset
// restarts it.
func TestReturnWhenReplacesReturnRule(t *testing.T) {
	quiet := false
	p := ReturnWhen(NewPowerPolicy(DefaultHostConfig(55, 50)), func() bool { return quiet }, time.Second, "quiet")
	if p.Name() != "power" {
		t.Errorf("name = %q", p.Name())
	}
	hot := Sample{Placement: Host, PowerW: 90, CPUUtil: 0.9}
	p.Observe(hot)
	hot.At = 3 * time.Second
	if d := p.Observe(hot); !d.Shift || d.Target != Network {
		t.Fatalf("the wrapped policy should still shift out, got %+v", d)
	}
	p.Reset()
	if d, _ := feed(p, Network, 0, 0, 10*time.Second, 100*time.Millisecond); d.Shift {
		t.Fatalf("zero rate must not return while not quiet, got %+v", d)
	}
	quiet = true
	d, at := feed(p, Network, 500, 10*time.Second, 2*time.Second, 100*time.Millisecond)
	if !d.Shift || d.Target != Host || d.Reason != "quiet" || at != 11*time.Second {
		t.Fatalf("quiet for the sustain should return at 11s, got %+v at %v", d, at)
	}
	p.Reset()
	if d := p.Observe(Sample{At: at + 100*time.Millisecond, Placement: Network}); d.Shift {
		t.Fatalf("Reset must restart the sustain, got %+v", d)
	}
}

func TestStaticPolicyPins(t *testing.T) {
	p := &StaticPolicy{Target: Network}
	if p.Name() != "static-network" {
		t.Errorf("name = %q", p.Name())
	}
	if d := p.Observe(Sample{Placement: Host}); !d.Shift || d.Target != Network {
		t.Error("static policy must shift toward its pin")
	}
	if d := p.Observe(Sample{Placement: Network}); d.Shift {
		t.Error("static policy at its pin must hold")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name, 100)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("bogus", 100); err == nil {
		t.Error("unknown policy name must error")
	}
}

func TestSetRateThresholdsValidation(t *testing.T) {
	p := NewThresholdPolicy(DefaultNetworkConfig(100))
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := p.SetRateThresholds(bad, 0); err == nil {
			t.Errorf("to-network %v must be rejected", bad)
		}
		if _, err := p.SetRateThresholds(0, bad); err == nil {
			t.Errorf("to-host %v must be rejected", bad)
		}
	}
	// Partial update keeps the other side.
	if _, err := p.SetRateThresholds(200, 0); err != nil {
		t.Fatal(err)
	}
	toNet, toHost := p.RateThresholds()
	if toNet != 200 || toHost != 70 {
		t.Errorf("thresholds = %v/%v, want 200/70", toNet, toHost)
	}
	// Hysteresis clamp is reported, not silent.
	clamped, err := p.SetRateThresholds(0, 500)
	if err != nil || !clamped {
		t.Errorf("clamped=%v err=%v, want reported clamp", clamped, err)
	}
	if _, toHost = p.RateThresholds(); toHost >= 200 {
		t.Errorf("to-host %v must stay below to-network", toHost)
	}
}

func TestParsePlacement(t *testing.T) {
	if p, err := ParsePlacement("network"); err != nil || p != Network {
		t.Error("network should parse")
	}
	if p, err := ParsePlacement("host"); err != nil || p != Host {
		t.Error("host should parse")
	}
	if _, err := ParsePlacement("fpga"); err == nil {
		t.Error("bad placement must error")
	}
}
