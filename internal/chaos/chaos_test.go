package chaos

import (
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"incod/internal/telemetry"
)

func TestMain(m *testing.M) {
	// Placement shifts log through the daemon's logger; a sweep makes
	// thousands of them.
	log.SetOutput(io.Discard)
	os.Exit(m.Run())
}

// TestPropertiesQuickSweep runs every property over a band of seeds —
// the in-tree slice of the CI sweep.
func TestPropertiesQuickSweep(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	rep := Sweep(Properties(), seeds, Config{Quick: true}, nil)
	for _, v := range rep.Violations {
		t.Errorf("%s seed=%d: %v (repro: %s)", v.Prop, v.Seed, v.Err, v.ReproCommand())
	}
	if rep.Runs != seeds*len(Properties()) {
		t.Errorf("Runs = %d, want %d", rep.Runs, seeds*len(Properties()))
	}
}

// TestSameSeedSameTrace is the replay guarantee: identical (seed,
// property) pairs produce identical order-sensitive trace hashes, and the
// identical packet trace to the last line — the hash is taken where the
// workload ends, the trace also covers what a property does afterwards
// (the Paxos retention audit).
func TestSameSeedSameTrace(t *testing.T) {
	for _, p := range Properties() {
		if p.Name == "controller-no-flap" {
			continue // network-free, hash is defined as 0
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			var t1, t2 strings.Builder
			h1, err1 := p.Run(7, Config{Quick: true, Trace: &t1})
			h2, err2 := p.Run(7, Config{Quick: true, Trace: &t2})
			if err1 != nil || err2 != nil {
				t.Fatalf("runs errored: %v, %v", err1, err2)
			}
			if h1 != h2 {
				t.Fatalf("same seed diverged: %016x vs %016x", h1, h2)
			}
			if h1 == 0 {
				t.Fatal("trace hash 0: no packet events folded in")
			}
			if a, b := t1.String(), t2.String(); a != b {
				l1, l2 := strings.Split(a, "\n"), strings.Split(b, "\n")
				for i := 0; i < len(l1) && i < len(l2); i++ {
					if l1[i] != l2[i] {
						t.Fatalf("same seed, traces differ from line %d of %d:\n%s\n%s", i+1, len(l1), l1[i], l2[i])
					}
				}
				t.Fatalf("same seed, traces differ in length: %d vs %d lines", len(l1), len(l2))
			}
		})
	}
}

// TestVoteAuditBites hands the tier an empty table instead of the host's
// (the host role forgets its votes just before an up-shift): the property
// must report the lost votes.
func TestVoteAuditBites(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		_, err := paxosVoteSafety(seed, Config{Quick: true}, func(st *PaxosStack) {
			st.Sim.Schedule(2400*time.Microsecond, func() { st.Acceptors[0].BeginHandoff(nil) })
		})
		if err == nil {
			t.Errorf("seed %d: acceptor 0 lost every vote across a handoff and the property held", seed)
		}
	}
}

// TestEngineBooksBite loses one reply inside the server: a fast path
// slipped under its engine consumes the tenth datagram and answers
// nothing. The workload does not require every request answered, so
// only the engine's books can tell, and they must.
func TestEngineBooksBite(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		_, err := runServing(kvsApp, seed, Config{Quick: true}, servingOpts{
			preload: 16, requests: 40, spacing: 8 * time.Microsecond,
			sabotage: func(st *ServingStack) { st.Node.SetFastPath(&loseNth{n: 10}) },
		})
		if err == nil || !strings.Contains(err.Error(), "handled 40 datagrams and sent 39 replies") {
			t.Errorf("seed %d: a reply lost inside the node, and the run returned %v", seed, err)
		}
	}
}

// loseNth is a fast path that consumes its n-th datagram and sends no
// reply; it leaves every other one to the host.
type loseNth struct{ n int }

func (l *loseNth) TryHandleDatagram([]byte, netip.AddrPort, *[]byte) ([]byte, bool, bool) {
	l.n--
	return nil, l.n == 0, false
}

// TestDifferentSeedsDifferentTrace guards against a run that ignores its
// seed entirely.
func TestDifferentSeedsDifferentTrace(t *testing.T) {
	p, err := PropertyByName("batch-equivalence")
	if err != nil {
		t.Fatal(err)
	}
	h1, err1 := p.Run(1, Config{Quick: true})
	h2, err2 := p.Run(2, Config{Quick: true})
	if err1 != nil || err2 != nil {
		t.Fatalf("runs errored: %v, %v", err1, err2)
	}
	if h1 == h2 {
		t.Fatalf("seeds 1 and 2 produced the same trace hash %016x", h1)
	}
}

// TestTraceWriterSeesPackets exercises the replay artifact path.
func TestTraceWriterSeesPackets(t *testing.T) {
	var b strings.Builder
	p, err := PropertyByName("crash-failback")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(3, Config{Quick: true, Trace: &b}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, kind := range []string{"send", "deliver"} {
		if !strings.Contains(out, kind) {
			t.Errorf("trace missing %q events", kind)
		}
	}
}

// TestPropertyByNameUnknown covers the runner's flag validation path.
func TestPropertyByNameUnknown(t *testing.T) {
	if _, err := PropertyByName("nope"); err == nil {
		t.Fatal("unknown property must error")
	}
	for _, p := range Properties() {
		got, err := PropertyByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Fatalf("PropertyByName(%q) = %v, %v", p.Name, got.Name, err)
		}
	}
}

// TestCrashableTierLifecycle pins the wrapper's contract: a stage-crash
// fails Warm before the inner tier runs, a crashed fast path falls
// through, Park always reaches the inner tier.
func TestCrashableTierLifecycle(t *testing.T) {
	inner := &fakeTier{}
	ct := NewCrashableTier(inner)

	ct.ArmStageCrash()
	if err := ct.Stage(); err != nil {
		t.Fatalf("armed Stage must succeed: %v", err)
	}
	if !ct.Crashed() {
		t.Fatal("stage-crash did not fire")
	}
	if err := ct.Warm(); err == nil {
		t.Fatal("Warm on a crashed card must fail")
	}
	if inner.warms != 0 {
		t.Fatal("crashed Warm must not reach the inner tier")
	}
	if _, served, _ := ct.TryHandleDatagram([]byte("x"), netip.AddrPort{}, new([]byte)); served {
		t.Fatal("crashed fast path must fall through")
	}
	if err := ct.Park(); err != nil || inner.parks != 1 {
		t.Fatalf("Park must reach the inner tier: err=%v parks=%d", err, inner.parks)
	}
	if err := ct.Stage(); err == nil {
		t.Fatal("Stage on a still-crashed card must fail")
	}
	ct.Restart()
	if err := ct.Stage(); err != nil || inner.stages != 2 {
		t.Fatalf("restarted Stage: err=%v stages=%d", err, inner.stages)
	}
	if err := ct.Warm(); err != nil || inner.warms != 1 {
		t.Fatalf("restarted Warm: err=%v warms=%d", err, inner.warms)
	}
}

// fakeTier counts lifecycle calls; its fast path serves everything.
type fakeTier struct {
	stages, warms, parks int
	counters             *telemetry.AtomicCounters
}

func (f *fakeTier) Name() string { return "fake" }
func (f *fakeTier) Stage() error { f.stages++; return nil }
func (f *fakeTier) Warm() error  { f.warms++; return nil }
func (f *fakeTier) Park() error  { f.parks++; return nil }
func (f *fakeTier) Counters() *telemetry.AtomicCounters {
	if f.counters == nil {
		f.counters = telemetry.NewAtomicCounters()
	}
	return f.counters
}
func (f *fakeTier) HitRatio() float64   { return 0 }
func (f *fakeTier) PowerWatts() float64 { return 0 }
func (f *fakeTier) TryHandleDatagram(in []byte, _ netip.AddrPort, _ *[]byte) ([]byte, bool, bool) {
	return in, true, true
}

// TestViolationRepro keeps the printed repro command in sync with the
// actual incchaos flags.
func TestViolationRepro(t *testing.T) {
	v := Violation{Prop: "paxos-vote-safety", Seed: 42, Err: fmt.Errorf("boom")}
	want := "go run ./cmd/incchaos -prop paxos-vote-safety -seed 42"
	if got := v.ReproCommand(); got != want {
		t.Fatalf("ReproCommand() = %q, want %q", got, want)
	}
}
