// Package simnet provides a deterministic discrete-event simulation engine
// with a simple packet network on top. All experiments in this repository
// run in virtual time: the simulator owns a virtual clock, an event queue,
// and a registry of nodes connected by links with bandwidth, propagation
// delay and bounded queues.
//
// The engine is single-goroutine and fully deterministic: two runs with the
// same seed and the same schedule of events produce identical results. That
// property replaces the paper's physical OSNT traffic generator and DAG
// capture card with something reproducible on any machine.
//
// # Fault plans
//
// A FaultPlan turns the network into a chaos substrate. Per link (or as a
// network-wide default) it injects packet loss, duplication, reordering
// within a fixed 20µs window and latency jitter. A link that loses every
// packet (LossRate 1) in both directions is a partition, and installing
// a new plan heals it; packets already in flight still land. Every
// probabilistic choice is drawn from the simulator's seeded random source
// in a fixed order, so an entire faulted run — including every drop,
// duplicate and delay — is a pure function of (seed, plan).
//
// An optional Tracer sees every packet event in order. The chaos harness
// in internal/chaos folds them into a hash, sweeps seeds, asserts
// properties, and on a violation prints the exact seed to replay;
// re-running with that seed reproduces the failure byte-for-byte, and a
// tracer dumps the full schedule. The network keeps no counters of its
// own: every drop, duplicate and delivery is a trace event, and a caller
// that wants a count counts the events its tracer sees.
package simnet
