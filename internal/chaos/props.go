package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dns"
	"incod/internal/fleet"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/paxos"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

// scale returns quick when cfg.Quick, else full — every property sizes
// its workload through it.
func (c Config) scale(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// mix folds two sub-run trace hashes into one deterministic value.
func mix(a, b uint64) uint64 { return a ^ (b*fleckPrime + fleckOffset) }

const (
	fleckPrime  uint64 = 0x100000001b3
	fleckOffset uint64 = 0x9e3779b97f4a7c15
	// seedStride derives a second sub-run seed so the two legs of a
	// property draw independent schedules.
	seedStride int64 = 0x9e3779b9
)

// --- serving workloads (KVS / DNS) ---------------------------------------

// recordedReply is one datagram the workload client got back.
type recordedReply struct {
	id   uint16
	body []byte
}

// replyRecorder is the workload client node: it records every reply with
// the request ID it answers.
type replyRecorder struct {
	address simnet.Addr
	decode  func([]byte) (uint16, bool)
	replies []recordedReply
}

func (r *replyRecorder) Addr() simnet.Addr { return r.address }

func (r *replyRecorder) Receive(pkt *simnet.Packet) {
	if id, ok := r.decode(pkt.Payload); ok {
		r.replies = append(r.replies, recordedReply{id: id, body: append([]byte(nil), pkt.Payload...)})
	}
}

// kvsReplyID extracts the echoed frame request ID.
func kvsReplyID(b []byte) (uint16, bool) {
	f, _, err := memcache.DecodeFrame(b)
	return f.RequestID, err == nil
}

// dnsReplyID extracts the echoed DNS message ID.
func dnsReplyID(b []byte) (uint16, bool) {
	if len(b) < 2 {
		return 0, false
	}
	return binary.BigEndian.Uint16(b[:2]), true
}

// servingOpts parameterizes one KVS or DNS serving run.
type servingOpts struct {
	preload  int
	window   time.Duration
	faults   simnet.FaultPlan
	requests int
	spacing  time.Duration
	// mutate mixes idempotent SETs (KVS) and unknown names into the
	// read workload.
	mutate bool
	// toggleEvery alternates a network/host placement pin.
	toggleEvery time.Duration
	// pinAtStart lights the tier before traffic.
	pinAtStart bool
	// crashAt kills the lit tier mid-run; watchEvery is the failback
	// watchdog period.
	crashAt    time.Duration
	watchEvery time.Duration
	// expectAll requires every request answered (loss-free plans only).
	expectAll bool
	// sabotage, when set, tampers with the stack before the run, for the
	// tests that show a check still bites.
	sabotage func(*ServingStack)
}

func (o servingOpts) total() time.Duration {
	return time.Duration(o.requests+2)*o.spacing + 2*time.Millisecond
}

// verifyReplies byte-compares every recorded reply against the oracle's
// answer for the request it echoes.
func verifyReplies(replies []recordedReply, reqs [][]byte, oracle *Oracle, expectAll bool) error {
	answered := make(map[uint16]bool)
	for _, rep := range replies {
		if int(rep.id) >= len(reqs) {
			return fmt.Errorf("reply echoes unknown request id %d", rep.id)
		}
		want := oracle.ReplyID(rep.id, reqs[rep.id])
		if !bytes.Equal(rep.body, want) {
			return fmt.Errorf("request %d: reply diverged from the host oracle: got %q want %q",
				rep.id, rep.body, want)
		}
		answered[rep.id] = true
	}
	if expectAll && len(answered) != len(reqs) {
		return fmt.Errorf("answered %d of %d requests on a loss-free network", len(answered), len(reqs))
	}
	return nil
}

// crashCheck carries the failback bookkeeping of a mid-run tier crash.
type crashCheck struct {
	crashedAt  simnet.Time
	failbackAt simnet.Time
}

func (c *crashCheck) verify(watchEvery time.Duration, placement string) error {
	if c.failbackAt == 0 {
		return fmt.Errorf("crashed tier never failed back to the host")
	}
	if lag := c.failbackAt.Sub(c.crashedAt); lag > 2*watchEvery {
		return fmt.Errorf("failback took %v, bound is %v", lag, 2*watchEvery)
	}
	if placement != "host" {
		return fmt.Errorf("placement %q after crash, want host", placement)
	}
	return nil
}

// scheduleServing installs the shared drivers — placement toggles, crash
// plus failback watchdog — against any stack's orchestrator and tier.
func scheduleServing(sim *simnet.Simulator, orch *daemon.Orchestrator, tier *CrashableTier,
	o servingOpts, stops []func()) ([]func(), *crashCheck) {
	if o.pinAtStart {
		if err := orch.Pin(core.Network); err != nil {
			panic(err) // healthy tier on a fresh stack; cannot fail
		}
	}
	if o.toggleEvery > 0 {
		toNetwork := !o.pinAtStart
		stops = append(stops, sim.Every(o.toggleEvery, func() {
			if toNetwork {
				_ = orch.Pin(core.Network)
			} else {
				_ = orch.Pin(core.Host)
			}
			toNetwork = !toNetwork
		}))
	}
	var crash *crashCheck
	if o.crashAt > 0 {
		crash = &crashCheck{}
		sim.Schedule(o.crashAt, func() {
			tier.Crash()
			crash.crashedAt = sim.Now()
		})
		stops = append(stops, sim.Every(o.watchEvery, func() {
			if !tier.Crashed() || crash.failbackAt != 0 {
				return
			}
			if st, err := orch.Status(); err == nil && st.Placement == "network" {
				_ = orch.Pin(core.Host)
				crash.failbackAt = sim.Now()
			}
		}))
	}
	return stops, crash
}

// servingApp is what differs between the KVS and the DNS serving runs.
type servingApp struct {
	name   string
	stack  func(seed int64, cfg StackConfig, n int) *ServingStack
	oracle func(n int) *Oracle
	// request draws request i of the workload.
	request func(r *rand.Rand, o servingOpts, i int) ([]byte, error)
	replyID func([]byte) (uint16, bool)
}

var kvsApp = servingApp{"kvs", NewKVSStack, NewKVSOracle,
	func(r *rand.Rand, o servingOpts, i int) ([]byte, error) {
		var req memcache.Request
		switch draw := r.Float64(); {
		case o.mutate && draw < 0.25:
			k := r.Intn(32)
			req = memcache.Request{Op: memcache.OpSet, Key: fmt.Sprintf("set-%d", k),
				Flags: 7, Value: []byte(fmt.Sprintf("sval-%d", k))}
		case o.mutate && draw < 0.40:
			req = memcache.Request{Op: memcache.OpGet, Key: fmt.Sprintf("missing-%d", r.Intn(16))}
		default:
			req = memcache.Request{Op: memcache.OpGet, Key: kvs.SequentialKey(r.Intn(o.preload))}
		}
		return memcache.EncodeFrame(memcache.Frame{RequestID: uint16(i), Total: 1},
			memcache.EncodeRequest(req)), nil
	}, kvsReplyID}

var dnsApp = servingApp{"dns", NewDNSStack, NewDNSOracle,
	func(r *rand.Rand, o servingOpts, i int) ([]byte, error) {
		name := dns.SequentialName(r.Intn(o.preload))
		if o.mutate && r.Float64() < 0.3 {
			name = fmt.Sprintf("missing%d.example.com", r.Intn(16))
		}
		return dns.Encode(dns.NewQuery(uint16(i), name))
	}, dnsReplyID}

// runServing drives a faulted KVS or DNS workload and byte-compares
// every reply against the fault-free single-datagram oracle.
func runServing(app servingApp, seed int64, cfg Config, o servingOpts) (uint64, error) {
	st := app.stack(seed, StackConfig{
		Link:        simnet.LinkConfig{Delay: 2 * time.Microsecond},
		Faults:      o.faults,
		BatchWindow: o.window,
		Trace:       cfg.Trace,
	}, o.preload)
	r := st.Sim.Rand()

	reqs := make([][]byte, o.requests)
	for i := range reqs {
		var err error
		if reqs[i], err = app.request(r, o, i); err != nil {
			return 0, fmt.Errorf("encode request: %w", err)
		}
	}

	rec := &replyRecorder{address: "client", decode: app.replyID}
	st.Net.Attach(rec)
	for i := range reqs {
		i := i
		st.Sim.Schedule(time.Duration(i+1)*o.spacing, func() {
			st.Net.Send(&simnet.Packet{Src: rec.address, Dst: ServerAddr, Payload: reqs[i]})
		})
	}
	stops, crash := scheduleServing(st.Sim, st.Orch, st.Tier, o, []func(){st.StopTick})
	if o.sabotage != nil {
		o.sabotage(st)
	}
	runAndDrain(st.Sim, o.total(), stops...)

	hash := uint64(*st.trace)
	if err := checkBooks(st.Node, true); err != nil {
		return hash, err
	}
	if err := verifyReplies(rec.replies, reqs, app.oracle(o.preload), o.expectAll); err != nil {
		return hash, err
	}
	if crash != nil {
		status, _ := st.Orch.Status()
		if err := crash.verify(o.watchEvery, status.Placement); err != nil {
			return hash, err
		}
	}
	return hash, nil
}

// --- property 1: paxos-vote-safety ---------------------------------------

// runPaxosVoteSafety shifts the acceptor tier up and down — including a
// crash between stage and flip — under loss, duplication and reordering,
// and asserts that no acceptor vote is ever lost or doubled and that no
// two learners and no client ever learn different values for an instance.
func runPaxosVoteSafety(seed int64, cfg Config) (uint64, error) {
	return paxosVoteSafety(seed, cfg, nil)
}

// paxosVoteSafety is the property with an optional sabotage of the stack
// before the run, for the test that shows the audit still bites.
func paxosVoteSafety(seed int64, cfg Config, sabotage func(*PaxosStack)) (uint64, error) {
	plan := simnet.FaultPlan{Default: simnet.Faults{
		LossRate:    0.05,
		DupRate:     0.10,
		ReorderRate: 0.20,
		JitterMax:   5 * time.Microsecond,
	}}
	st := NewPaxosStack(seed, StackConfig{
		Link:        simnet.LinkConfig{Delay: 2 * time.Microsecond},
		Faults:      plan,
		BatchWindow: 2 * time.Microsecond,
		Trace:       cfg.Trace,
	}, 2)
	r := st.Sim.Rand()

	perClient := cfg.scale(15, 40)
	proposed := make(map[uint16]map[uint64][]byte)
	for ci, cl := range st.Clients {
		cl := cl
		proposed[cl.ID] = make(map[uint64][]byte)
		for i := 0; i < perClient; i++ {
			seq := uint64(i)
			value := []byte(fmt.Sprintf("c%d-s%d", cl.ID, seq))
			proposed[cl.ID][seq] = value
			at := time.Duration(i)*30*time.Microsecond + time.Duration(ci)*7*time.Microsecond
			st.Sim.Schedule(at, func() { cl.Propose(seq, value) })
		}
	}

	// Placement toggles every 1ms: even toggles pin to the network, odd
	// ones back to the host. One seed-chosen up-shift is sabotaged with a
	// stage crash (Warm dies before any state leaves the host); the next
	// down toggle restarts the card so later up-shifts succeed.
	toggles := cfg.scale(4, 6)
	crashIdx := 2 * r.Intn(toggles/2)
	for j := 0; j < toggles; j++ {
		j := j
		st.Sim.Schedule(500*time.Microsecond+time.Duration(j)*time.Millisecond, func() {
			if j%2 == 0 {
				if j == crashIdx {
					st.Tier.ArmStageCrash()
				}
				_ = st.Orch.Pin(core.Network)
			} else {
				st.Tier.Restart()
				_ = st.Orch.Pin(core.Host)
			}
		})
	}
	if sabotage != nil {
		sabotage(st)
	}

	total := time.Duration(toggles)*time.Millisecond + 2*time.Millisecond
	runAndDrain(st.Sim, total, st.stops...)
	hash := uint64(*st.trace)
	for _, n := range st.nodes() {
		if err := checkBooks(n, false); err != nil {
			return hash, err
		}
	}

	// Retention audit: park the tier for good, then replay a poisoned 2A
	// (same ballot, different value) at every instance acceptor 0 voted
	// on, in instance order. The acceptor answers with the vote it holds;
	// any other reply means the vote was lost across the shifts (and the
	// auditor sees the poisoned ballot carry a second value).
	st.Tier.Restart()
	if err := st.Orch.Pin(core.Host); err != nil {
		return hash, fmt.Errorf("final pin to host: %w", err)
	}
	var insts []uint64
	for k := range st.Audit.votes {
		if k.Node == 0 {
			insts = append(insts, k.Instance)
		}
	}
	slices.Sort(insts)
	var scratch []byte
	for _, inst := range insts {
		vote := st.Audit.votes[voteKey{0, inst}]
		poison := paxos.Encode(paxos.Msg{
			Type:     paxos.MsgPhase2A,
			Instance: inst,
			Ballot:   vote.VBallot,
			Value:    []byte("poison"),
		})
		out, ok := st.Acceptors[0].HandleDatagram(poison, &scratch)
		if !ok {
			return hash, fmt.Errorf("instance %d: vote lost (no reply to re-vote probe)", inst)
		}
		var v paxos.MsgView
		if err := paxos.DecodeView(out, &v); err != nil || v.Type != paxos.MsgPhase2B {
			return hash, fmt.Errorf("instance %d: unexpected probe reply", inst)
		}
		if !bytes.Equal(v.Value, vote.Value) || v.VBallot != vote.VBallot {
			return hash, fmt.Errorf("instance %d: vote lost: probe answered (b%d %q), voted (b%d %q)",
				inst, v.VBallot, v.Value, vote.VBallot, vote.Value)
		}
	}
	st.Sim.Run() // land the probes' re-votes: the checks below see the trace at rest

	if len(st.Audit.Conflicts) > 0 {
		return hash, fmt.Errorf("doubled vote: %s", st.Audit.Conflicts[0])
	}
	for _, cl := range st.Clients {
		if len(cl.Conflicts) > 0 {
			return hash, fmt.Errorf("conflicting decision: %s", cl.Conflicts[0])
		}
		for seq, got := range cl.Decided {
			if want, ok := proposed[cl.ID][seq]; !ok || !bytes.Equal(got, want) {
				return hash, fmt.Errorf("client %d seq %d decided %q, proposed %q",
					cl.ID, seq, got, want)
			}
		}
	}
	if st.Learner.DecidedCount() == 0 {
		return hash, fmt.Errorf("nothing decided in the whole run")
	}
	// Agreement: whatever two learners, or a learner and a client, each
	// learned for an instance is one value.
	highest := max(st.Learners[0].Highest(), st.Learners[1].Highest())
	for inst := uint64(1); inst <= highest; inst++ {
		v0, ok0 := st.Learners[0].Decided(inst)
		v1, ok1 := st.Learners[1].Decided(inst)
		if ok0 && ok1 && !bytes.Equal(v0, v1) {
			return hash, fmt.Errorf("learners disagree on instance %d: %q vs %q", inst, v0, v1)
		}
		for _, cl := range st.Clients {
			told, ok := cl.ByInstance[inst]
			if ok && (ok0 && !bytes.Equal(told, v0) || ok1 && !bytes.Equal(told, v1)) {
				return hash, fmt.Errorf("client %d was told %q for instance %d, learners learned %q, %q",
					cl.ID, told, inst, v0, v1)
			}
		}
	}
	return hash, nil
}

// --- property 2: batch-equivalence ---------------------------------------

// runBatchEquivalence serves read-only KVS and DNS workloads through the
// batched dispatch path (host and tier), comparing every reply against
// the single-datagram host oracle.
func runBatchEquivalence(seed int64, cfg Config) (uint64, error) {
	base := servingOpts{
		window: 2 * time.Microsecond,
		faults: simnet.FaultPlan{Default: simnet.Faults{
			DupRate:     0.05,
			ReorderRate: 0.30,
			JitterMax:   3 * time.Microsecond,
		}},
		requests:    cfg.scale(120, 250),
		spacing:     8 * time.Microsecond,
		toggleEvery: 600 * time.Microsecond,
		expectAll:   true,
	}
	kvsOpts := base
	kvsOpts.preload = 48
	h1, err := runServing(kvsApp, seed, cfg, kvsOpts)
	if err != nil {
		return h1, fmt.Errorf("kvs: %w", err)
	}
	dnsOpts := base
	dnsOpts.preload = 48
	h2, err := runServing(dnsApp, seed+seedStride, cfg, dnsOpts)
	if err != nil {
		return mix(h1, h2), fmt.Errorf("dns: %w", err)
	}
	return mix(h1, h2), nil
}

// --- property 3: migration-correctness -----------------------------------

// runMigrationCorrectness hammers KVS and DNS with reads, idempotent
// writes and unknown keys while the placement migrates every few hundred
// microseconds under loss and duplication: zero wrong answers allowed.
func runMigrationCorrectness(seed int64, cfg Config) (uint64, error) {
	base := servingOpts{
		window: 2 * time.Microsecond,
		faults: simnet.FaultPlan{Default: simnet.Faults{
			LossRate:    0.08,
			DupRate:     0.12,
			ReorderRate: 0.20,
			JitterMax:   3 * time.Microsecond,
		}},
		requests:    cfg.scale(150, 300),
		spacing:     8 * time.Microsecond,
		mutate:      true,
		toggleEvery: 400 * time.Microsecond,
	}
	kvsOpts := base
	kvsOpts.preload = 64
	h1, err := runServing(kvsApp, seed, cfg, kvsOpts)
	if err != nil {
		return h1, fmt.Errorf("kvs: %w", err)
	}
	dnsOpts := base
	dnsOpts.preload = 48
	h2, err := runServing(dnsApp, seed+seedStride, cfg, dnsOpts)
	if err != nil {
		return mix(h1, h2), fmt.Errorf("dns: %w", err)
	}
	return mix(h1, h2), nil
}

// --- property 4: controller-no-flap --------------------------------------

// runControllerNoFlap drives the threshold policy and the fleet budget
// scheduler with adversarial load that oscillates around the crossover
// but stays inside the hysteresis band: neither may move placement once.
func runControllerNoFlap(seed int64, cfg Config) (uint64, error) {
	sim := simnet.New(seed)
	r := sim.Rand()
	ticks := cfg.scale(200, 600)

	// Part A: the daemon threshold policy. Crossover 100 kpps means
	// shift-up above 110 (1s of it) and shift-down below 70 (2s). Load
	// oscillating through [72, 108] crosses the crossover constantly but
	// never completes a threshold window.
	const tick = 100 * time.Millisecond
	var total uint64
	sim.Every(tick, func() { total += uint64((72 + r.Float64()*36) * 100) }) // kpps * 1000/s * 0.1s
	orch, _ := simhost.Orchestrate(sim, tick, daemon.ServiceConfig{
		Service: &core.FuncService{ServiceName: "svc"},
		Policy:  core.NewThresholdPolicy(core.DefaultNetworkConfig(100)),
	}, func() uint64 { return total })
	sim.RunFor(time.Duration(ticks) * tick)
	status, err := orch.Status()
	if err != nil {
		return 0, err
	}
	if status.Shifts != 0 {
		return 0, fmt.Errorf("threshold policy flapped: %d shifts under in-band load", status.Shifts)
	}

	// Part B: the fleet budget scheduler. Four members, two lit, savings
	// jittered by ±0.9 W each tick so the ranking churns constantly —
	// but no margin (light 1.0, douse 0.25, swap 2.0) is ever cleared.
	sched := fleet.NewScheduler(fleet.DefaultSchedulerConfig(2))
	baseW := []float64{10, 9, 8.5, 8}
	for i := 0; i < ticks; i++ {
		cands := make([]fleet.Candidate, len(baseW))
		for j, w := range baseW {
			cands[j] = fleet.Candidate{
				Name:    fmt.Sprintf("m%d", j),
				Lit:     j < 2,
				SavingW: w + (r.Float64()*1.8 - 0.9),
			}
		}
		if a, ok := sched.Plan(cands); ok {
			return 0, fmt.Errorf("budget scheduler flapped at tick %d: %v member %s (%s)",
				i, a.Kind, a.Member, a.Reason)
		}
	}
	return 0, nil
}

// --- property 5: crash-failback ------------------------------------------

// runCrashFailback lights the KVS tier, kills the card mid-serving, and
// requires every single request answered correctly on a loss-free
// network — the crashed fast path must fall through, and the watchdog
// must fail the service back to the host within two of its ticks.
func runCrashFailback(seed int64, cfg Config) (uint64, error) {
	requests := cfg.scale(150, 300)
	const spacing = 10 * time.Microsecond
	o := servingOpts{
		preload:    64,
		requests:   requests,
		spacing:    spacing,
		pinAtStart: true,
		watchEvery: 200 * time.Microsecond,
		expectAll:  true,
	}
	// Kill the card somewhere in the middle half of the run; the draw
	// comes first so it is part of the seed's deterministic prefix.
	span := time.Duration(requests) * spacing
	o.crashAt = span/4 + time.Duration(simnet.New(seed+1).Rand().Int63n(int64(span/2)))
	return runServing(kvsApp, seed, cfg, o)
}
