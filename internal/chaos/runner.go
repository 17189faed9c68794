package chaos

import (
	"fmt"
	"io"
	"time"
)

// Config tunes a property run.
type Config struct {
	// Quick shrinks the per-seed workloads (CI sweeps thousands of seeds;
	// a single replay can afford the full size).
	Quick bool
	// Trace, when set, receives the packet-level event log of the run.
	Trace io.Writer
}

// Property is one standing invariant the harness sweeps. Run executes a
// full deterministic chaos run for (seed, property): the returned hash is
// the stack's order-sensitive trace hash (0 for network-free
// properties), identical across runs of the same seed; err reports a
// violation.
type Property struct {
	Name string
	Doc  string
	run  func(seed int64, cfg Config) (uint64, error)
}

// Run executes the property once for seed.
func (p Property) Run(seed int64, cfg Config) (uint64, error) {
	return p.run(seed, cfg)
}

// Properties returns the five standing invariants, in sweep order.
func Properties() []Property {
	return []Property{
		{
			Name: "paxos-vote-safety",
			Doc:  "no acceptor vote lost or doubled across shifts, incl. crash between stage and flip",
			run:  runPaxosVoteSafety,
		},
		{
			Name: "batch-equivalence",
			Doc:  "batched serving answers byte-identically to the single-datagram path (KVS + DNS)",
			run:  runBatchEquivalence,
		},
		{
			Name: "migration-correctness",
			Doc:  "zero wrong answers from KVS/DNS while migrating under loss and duplication",
			run:  runMigrationCorrectness,
		},
		{
			Name: "controller-no-flap",
			Doc:  "threshold policy and budget scheduler hold placement under adversarial load",
			run:  runControllerNoFlap,
		},
		{
			Name: "crash-failback",
			Doc:  "crashed NIC tier falls through correctly and fails back within bounded ticks",
			run:  runCrashFailback,
		},
	}
}

// PropertyByName returns the named property.
func PropertyByName(name string) (Property, error) {
	for _, p := range Properties() {
		if p.Name == name {
			return p, nil
		}
	}
	return Property{}, fmt.Errorf("chaos: unknown property %q", name)
}

// Violation is one failed (property, seed) pair.
type Violation struct {
	Prop string
	Seed int64
	Err  error
}

// ReproCommand is the command line that replays this violation.
func (v Violation) ReproCommand() string {
	return fmt.Sprintf("go run ./cmd/incchaos -prop %s -seed %d", v.Prop, v.Seed)
}

// Report summarizes a sweep.
type Report struct {
	Runs       int
	Seeds      int
	Violations []Violation
	Elapsed    time.Duration
}

// OK reports a clean sweep.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Sweep runs every property over seeds consecutive seeds (0..seeds-1),
// collecting violations instead of stopping — one bad seed must not
// mask another property's failure. progress (optional) is called after
// each completed run.
func Sweep(props []Property, seeds int, cfg Config, progress func(done, total int)) Report {
	start := time.Now()
	r := Report{Seeds: seeds}
	total := seeds * len(props)
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, p := range props {
			if _, err := p.Run(seed, cfg); err != nil {
				r.Violations = append(r.Violations, Violation{Prop: p.Name, Seed: seed, Err: err})
			}
			r.Runs++
			if progress != nil {
				progress(r.Runs, total)
			}
		}
	}
	r.Elapsed = time.Since(start)
	return r
}
