// Package incod is a reproduction of "The Case For In-Network Computing
// On Demand" (Tokusashi, Dang, Pedone, Soulé, Zilberman — EuroSys 2019):
// a power-vs-performance study of in-network computing (KVS, Paxos, DNS on
// NetFPGA SUME and a Tofino-class ASIC) and the on-demand controllers that
// shift those services between host software and network hardware.
//
// The control plane is organized around two abstractions in
// internal/core — Service (a workload with a fallible Shift and a
// TransitionCost hook for the §9.2 transition tasks) and Policy (the §9.1
// decision kernels — mirrored-threshold, power-aware, static pin — as
// pluggable Observe(Sample) Decision rules) — and one loop that runs
// them: internal/daemon's Orchestrator, exposed to
// operators through the versioned /v1 HTTP control API served by every
// daemon (see README.md). The same Orchestrator, reading the simulator's
// clock instead of the wall clock, places the same handlers, tiers and
// nictier.Service in every figure, scenario and example: internal/simhost
// serves them in simulated time under the paper's cost model.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory), runnable daemons under cmd/, and worked examples under
// examples/. The benchmarks in this package regenerate every table and
// figure in the paper's evaluation, as does `go run ./cmd/incbench all`,
// whose table notes quote the paper's figure beside the measured one.
package incod
