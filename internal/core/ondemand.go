// Package core implements the paper's contribution: in-network computing
// on demand (§9) — dynamically shifting a service between the host CPU and
// a programmable network device so the system always sits on the
// power-optimal side of the software/hardware crossover.
//
// The control plane is built from two first-class abstractions:
//
//   - Service: a workload that can run on either substrate, with a
//     fallible Shift (the §9.2 transition tasks can fail) and an optional
//     TaskNamer hook that names the task a shift runs. The tasks live
//     with what they move, not here:
//     nictier.Service (LaKe cache activation, DNS zone sync, acceptor
//     state handoff), simhost.Paxos (leader election).
//
//   - Policy: a pluggable placement decision rule (Observe(Sample)
//     Decision). ThresholdPolicy is the §9.1 network-controlled kernel
//     ("40 lines of code within the FPGA's classifier module"),
//     PowerPolicy the §9.1 host-controlled kernel ("204 lines of code ...
//     0.3% CPU usage, mainly for performing RAPL reads"), StaticPolicy a
//     manual pin.
//
// The loop that samples, decides and shifts is daemon.Orchestrator — one
// implementation, on the wall clock in the daemons and on the simulator's
// clock (simhost.Orchestrate) in every figure, scenario and example. This
// package knows no clock: a Sample and a Transition carry durations since
// the loop's first tick.
package core

import (
	"fmt"
	"sync"
	"time"
)

// Placement is where a service currently runs.
type Placement int

// Placements.
const (
	Host Placement = iota
	Network
)

// String names the placement.
func (p Placement) String() string {
	if p == Network {
		return "network"
	}
	return "host"
}

// Service is a workload that can run on either substrate. Implementations
// perform the §9.2 application-specific transition task inside Shift
// (LaKe cache activation, Paxos leader election, DNS table sync).
type Service interface {
	// Name identifies the service in transition logs.
	Name() string
	// Placement reports where the service currently runs.
	Placement() Placement
	// Shift moves the service, running its transition task. Shifting to
	// the current placement must be a no-op returning nil. A non-nil error
	// means the service stayed where it was (the orchestrator retries on
	// the next decision).
	Shift(to Placement) error
}

// TaskNamer is an optional Service extension naming the §9.2 transition
// task a shift to a placement runs. The orchestrator records the name on
// the transition.
type TaskNamer interface {
	TransitionTask(to Placement) string
}

// Transition records one applied placement change, on whichever clock the
// orchestrator runs.
type Transition struct {
	// At is when the shift was decided, since the loop's first tick.
	At     time.Duration
	To     Placement
	Reason string
	// Took is how long the service's Shift ran.
	Took time.Duration
	// Task names the transition task, when the service implements
	// TaskNamer.
	Task string
}

// String renders the transition for figure notes and scenario logs.
func (t Transition) String() string {
	return fmt.Sprintf("%v -> %s (%s)", t.At, t.To, t.Reason)
}

// FuncService adapts closures to Service, for tests, advisory daemons and
// simple bindings. Like every Service driven by the live orchestrator, it
// keeps Placement readable while a Shift is blocked inside its transition
// task — the orchestrator releases its own mutex for the duration, so
// status reads race the transition by design.
type FuncService struct {
	ServiceName string
	// Where seeds the placement; after construction read it through
	// Placement (it is guarded by an internal mutex).
	Where Placement
	// OnShift, if set, runs the transition task; returning an error
	// aborts the shift.
	OnShift func(to Placement) error

	mu sync.Mutex
}

// Name implements Service.
func (f *FuncService) Name() string { return f.ServiceName }

// Placement implements Service. It never blocks behind an in-flight
// OnShift.
func (f *FuncService) Placement() Placement {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.Where
}

// Shift implements Service. The mutex is released while OnShift runs,
// mirroring the real tiers: a slow transition task must not block
// concurrent Placement reads.
func (f *FuncService) Shift(to Placement) error {
	if to == f.Placement() {
		return nil
	}
	if f.OnShift != nil {
		if err := f.OnShift(to); err != nil {
			return err
		}
	}
	f.mu.Lock()
	f.Where = to
	f.mu.Unlock()
	return nil
}
