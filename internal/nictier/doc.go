// Package nictier is the live offload tier: an emulated NIC fast path
// that makes placement a real, observable property of the wall-clock
// dataplane instead of an advisory log line. The paper's three hardware
// designs are restated as dataplane.FastPath implementations that
// interpose on engine dispatch before the host handler:
//
//   - KVSTier — a LaKe-style lookaside cache (§3.1): one table bounded at
//     the DRAM layer's entry count, holding memory only for what it
//     caches, serving single-key memcached GET hits with one parse, one
//     hash and one lock-free read; writes are write-through-interposed
//     in place and fall to the host store of record. Nothing on that
//     path allocates. (The paper's on-chip/off-chip hit times are a
//     property of the cost model a simulated node carries,
//     simhost.LaKe, not of a second cache.)
//   - DNSTier — an Emu-DNS-style answer table (§3.3) synced from the
//     authoritative zone, answering A/IN queries and NXDOMAIN directly.
//   - PaxosAcceptorTier — a P4xos-style acceptor (§3.2) that takes a
//     state handoff of the host role's AcceptorTable and serves
//     Phase1A/2A, fanning votes out to the learners. The table is an
//     append-only vote log, so the handoff shares its sealed chunks and
//     copies one chunk and the index, not the history of votes.
//
// Each tier reports its card's power draw from internal/fpga's board
// model (the design's watts at the metered utilization when serving, the
// §9.2 park-reset draw when idle), so power-aware policies and the /v1
// API see a live per-tier wattage.
//
// Service binds a tier to an engine as a core.Service whose Shift
// performs the §9.2 transition tasks for real: shifting to "network"
// stages the tier, flips engine dispatch, fences pre-flip host work with
// Engine.Barrier, then warms (cache fill from the store, zone snapshot
// install, acceptor state handoff) while the host keeps serving every
// miss; shifting back drains the fast path without dropping an in-flight
// request, then parks the tier. Correctness across the migration relies
// on two invariants: the host store/zone/role stays the source of truth
// (a tier cache may miss, never lie), and same-key operations are
// serialized by the engine's key-hashed dispatch.
package nictier
