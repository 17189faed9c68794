// Package fleet is the datacenter-scale control plane of the paper's §6
// argument made live: a controller (cmd/incfleetd) that supervises N
// serving members, enforces a global offload budget, replays the
// internal/cluster demand traces as real traffic, and aggregates the
// per-member measurements into a fleet-wide day-saving energy figure —
// the simulated curve of internal/cluster reproduced from live serving.
//
// # Members
//
// A Member is reached through its *daemon.Orchestrator, the one control
// loop every daemon runs: the controller reads its Status and Dataplane,
// pins its placement, and counts it healthy while it is Ready (its
// engine Running). StartMember builds a kvs, dns or paxos-acceptor
// member in this process with the daemons' own start sequence
// (daemon.Flags.Start, as inckvsd, incdnsd and incpaxosd run it with
// -nictier and -policy static-host), each on its own loopback UDP
// engine. Members run in process rather than as spawned daemons reached
// over /v1: the data the fleet moves is the orchestrator's method set,
// so an HTTP client, a process spawner and a health poll only copied
// it. Adopting remote daemons is left out for the same reason; the /v1
// API they serve is unchanged.
//
// # Budget scheduler invariants
//
// On-demand offload only pays off fleet-wide when *which* servers light
// their NIC tier is a global decision under a power/NIC budget. The
// Scheduler (budget.go) maintains, by construction:
//
//   - Bounded lighting: at most K members have a lit offload tier at any
//     instant. A light action is only emitted while lit < K; swapping a
//     better candidate in always douses the incumbent first and lights
//     the challenger on a later tick, so the count never passes through
//     K+1.
//
//   - Staggered shifts: at most one placement action is emitted per
//     planning tick, and none at all while any member still reports a
//     transition in flight. Two daemons never migrate state at the same
//     time, so fleet-wide serving capacity degrades by at most one
//     member's transition overlap.
//
//   - No placement flapping: a candidate must hold its ranking verdict
//     for Hold consecutive ticks before an action is emitted, and the
//     light/douse thresholds are hysteretic (light above a 1 W saving,
//     douse only below 0.25 W). An incumbent is preempted only when a
//     challenger has out-saved it by 2 W for Hold ticks.
//
//   - Determinism: equal-saving candidates are ordered by name, so the
//     same inputs always plan the same actions.
//
// The controller (controller.go) applies scheduler actions as manual
// placement pins (Orchestrator.Pin), which override each member's local
// policy — global budget beats local greed. Every member is pinned to
// host at adoption, so a fleet starts dark and only lights tiers the
// budget grants.
//
// # Energy accounting
//
// Each control tick samples every member's status and dataplane stats
// and models two fleet-wide power draws, using each member's §4
// software curve and the measured tier hit ratio:
//
//	software-only: P_sw(modeled kpps)
//	on-demand:     P_sw(modeled host-residual kpps) + reported tier watts
//	               while lit; P_sw(modeled kpps) while dark (the parked
//	               card is partial-reconfigured down to the reference NIC
//	               the §4 idle figure already includes — §9.2)
//
// Each draw feeds its own telemetry.PowerMeter, the repo's one energy
// account, so the snapshot's energy totals are the trapezoid rule over
// the published curve.
//
// Loopback cannot offer datacenter rates, so measured kpps are scaled by
// a configured RateScale into modeled kpps (the trace replayer divides
// by the same factor when generating load), and the meters observe at
// wall time since the first tick scaled by WallScale back to the trace's
// native duration. What is *measured* is real: served
// rates, hit ratios, shift counts and durations, and wrong answers from
// the load generators' counts — the model only converts those
// measurements into watts.
package fleet
