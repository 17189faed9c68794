package paxos

import (
	"math/rand"
	"time"

	"incod/internal/fpga"
	"incod/internal/power"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// Runtime describes how a Paxos role executes: its per-message service
// latency, peak message rate, and power model. The same protocol code runs
// on every runtime — exactly the paper's interchangeability argument
// (§3.2: "the components are interchangeable with multiple software
// implementations ... and can target both hardware devices").
type Runtime struct {
	Name string
	// BaseLatency and Jitter shape per-message service time.
	BaseLatency time.Duration
	Jitter      time.Duration
	// PeakKpps is the role's message-rate capacity.
	PeakKpps float64
	// Curve is the whole-server power curve (software runtimes).
	Curve *power.SoftwareCurve
	// Board is the FPGA card (hardware runtime); nil for software.
	Board *fpga.Board
}

// Software runtimes (§4.3). Latencies put end-to-end consensus around
// 300-450µs in software (the Figure 7 scale) and halve it with a hardware
// leader.
func libpaxosRuntime(name string, curve power.SoftwareCurve, base time.Duration) *Runtime {
	c := curve
	return &Runtime{
		Name:        name,
		BaseLatency: base,
		Jitter:      20 * time.Microsecond,
		PeakKpps:    curve.PeakKpps,
		Curve:       &c,
	}
}

// NewLibpaxosLeader returns the single-core libpaxos leader runtime.
func NewLibpaxosLeader() *Runtime {
	return libpaxosRuntime("libpaxos-leader", power.LibpaxosLeader, 130*time.Microsecond)
}

// NewLibpaxosAcceptor returns the libpaxos acceptor runtime.
func NewLibpaxosAcceptor() *Runtime {
	return libpaxosRuntime("libpaxos-acceptor", power.LibpaxosAcceptor, 120*time.Microsecond)
}

// NewDPDKLeader returns the kernel-bypass leader: lower latency, higher
// capacity, high flat power (§4.3: DPDK "constantly polls").
func NewDPDKLeader() *Runtime {
	r := libpaxosRuntime("dpdk-leader", power.DPDKLeader, 25*time.Microsecond)
	r.Jitter = 4 * time.Microsecond
	return r
}

// NewDPDKAcceptor returns the kernel-bypass acceptor runtime.
func NewDPDKAcceptor() *Runtime {
	r := libpaxosRuntime("dpdk-acceptor", power.DPDKAcceptor, 22*time.Microsecond)
	r.Jitter = 4 * time.Microsecond
	return r
}

// NewP4xosRuntime returns the FPGA hardware runtime for any role: ~1.5µs
// pipeline latency, 10M msgs/s capacity.
func NewP4xosRuntime(role string) *Runtime {
	return &Runtime{
		Name:        "p4xos-" + role,
		BaseLatency: 1500 * time.Nanosecond,
		Jitter:      100 * time.Nanosecond,
		PeakKpps:    fpga.P4xosDesign.PeakKpps,
		Board:       fpga.NewBoard(fpga.P4xosDesign),
	}
}

// ServiceLatency draws one service time.
func (r *Runtime) ServiceLatency(rng *rand.Rand) time.Duration {
	return r.BaseLatency + time.Duration(rng.ExpFloat64()*float64(r.Jitter))
}

// Hardware reports whether this runtime is an in-network deployment.
func (r *Runtime) Hardware() bool { return r.Board != nil }

// role is shared plumbing for all Paxos nodes: address, runtime, rate
// metering and power.
type role struct {
	addr    simnet.Addr
	sim     *simnet.Simulator
	net     *simnet.Network
	runtime *Runtime
	rate    *telemetry.RateMeter

	Counters *telemetry.AtomicCounters
}

func newRole(net *simnet.Network, addr simnet.Addr, rt *Runtime) role {
	r := role{
		addr:     addr,
		sim:      net.Sim(),
		net:      net,
		runtime:  rt,
		rate:     telemetry.NewRateMeter(10*time.Millisecond, 100),
		Counters: telemetry.NewAtomicCounters(),
	}
	if rt.Board != nil {
		rt.Board.SetLoadFunc(func() float64 {
			peak := rt.Board.PeakKpps()
			if peak <= 0 {
				return 0
			}
			return r.RateKpps() / peak
		})
	}
	return r
}

// Addr implements simnet.Node.
func (r *role) Addr() simnet.Addr { return r.addr }

// Runtime returns the execution variant.
func (r *role) Runtime() *Runtime { return r.runtime }

// RateKpps is the message rate over the 1s sliding window.
func (r *role) RateKpps() float64 { return r.rate.Rate(r.sim.Now()) / 1000 }

// PowerWatts implements telemetry.PowerSource: whole-server power for
// software runtimes, card increment for hardware.
func (r *role) PowerWatts(now simnet.Time) float64 {
	if r.runtime.Board != nil {
		return r.runtime.Board.PowerWatts(now)
	}
	if r.runtime.Curve != nil {
		return r.runtime.Curve.Power(r.rate.Rate(now) / 1000)
	}
	return 0
}

// send transmits m to dst after the role's service latency.
func (r *role) send(dst simnet.Addr, m Msg, after time.Duration) {
	r.sim.Schedule(after, func() {
		r.net.Send(&simnet.Packet{
			Src: r.addr, Dst: dst, SrcPort: Port, DstPort: Port, Payload: Encode(m),
		})
	})
}
