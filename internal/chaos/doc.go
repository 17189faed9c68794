// Package chaos is the deterministic whole-stack chaos harness: it runs
// the repository's *live* serving code — the kvs/dns/paxos dataplane
// handlers, the nictier offload tiers with their real Stage/Warm/Park
// shift lifecycle, and the daemon orchestrator — on the internal/simnet
// substrate instead of UDP sockets, under seeded fault injection.
//
// # Architecture
//
// simhost.Node is the bridge: a simnet.Node that runs the dataplane
// engine itself (dataplane.NewDriven: fast-path interposition before the
// host handler, the batched worker's turn, turned on every delivery or
// once per batch window) and implements nictier.Dataplane, so an
// unmodified nictier.Service shifts placement on it exactly as it does
// on a real engine. After each run every node's engine must balance its
// books: everything read handled, nothing dropped or failed, and on KVS
// and DNS one reply per datagram. The KVS and DNS stacks, and the
// oracles their replies are held to, are built from the
// internal/protocol rows the daemons serve. CrashableTier wraps any
// nictier.Tier with schedulable failure: a crash armed at Stage makes the
// following Warm fail before any state leaves the host (the §9.2
// transition task dying mid-shift), and a crash while lit makes the fast
// path fall through so every datagram lands on the host software. The
// orchestrator is built and ticked by simhost.Orchestrate, like every
// other orchestrator on the virtual clock: its pins, shift durations and
// transition log are dated by the simulator, never by the host.
//
// Each run installs one network-wide simnet.FaultPlan — loss,
// duplication, reordering, jitter — and the crash properties schedule
// tier crashes, all drawn from the simulator's seeded RNG. The stack's tracer folds every packet
// event into the run's trace hash. Everything in a run is therefore a
// pure function of (seed, property): any failure replays byte-for-byte
// from the seed printed with the violation.
//
// # Properties
//
// Properties() returns the five standing invariants, each a self-contained
// run asserting against an in-process oracle:
//
//   - paxos-vote-safety: no acceptor vote is lost or doubled across
//     placement shifts, including a tier crash between stage and flip,
//     and no two learners and no client learn different values for an
//     instance (the consensus deployment is simhost.NewPaxos, run bare).
//   - batch-equivalence: batched serving answers byte-identically to the
//     single-datagram path, for KVS and DNS, host and tier alike.
//   - migration-correctness: zero wrong answers from KVS/DNS while the
//     service migrates under loss and duplication.
//   - controller-no-flap: the threshold policy and the fleet budget
//     scheduler hold placement under adversarial oscillating load.
//   - crash-failback: a crashed NIC tier keeps serving correctly through
//     host fall-through and is failed back to software within a bounded
//     number of virtual ticks.
//
// # Replaying a violation
//
// Sweep prints (and cmd/incchaos re-prints) the violating (property,
// seed). Re-running that single pair reproduces the identical execution:
//
//	go run ./cmd/incchaos -prop paxos-vote-safety -seed 1337
//
// Add -trace to dump every packet event of the replay.
package chaos
