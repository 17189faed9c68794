package fleet

import (
	"context"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"incod/internal/cluster"
	"incod/internal/trafficgen"
)

func ramp(from, to float64, d time.Duration) trafficgen.Segment {
	return trafficgen.Segment{Kind: "ramp", From: from, To: to, Dur: d}
}

func TestTraceProfileRampsAndScale(t *testing.T) {
	trace := cluster.LoadTrace{10, 20, 30} // modeled kpps
	got := traceProfile(trace, 10*time.Second, 2, 10)
	want := trafficgen.Profile{ramp(1000, 2000, 5*time.Second), ramp(2000, 3000, 5*time.Second)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("profile = %v, want %v", got, want)
	}
}

func TestTraceProfileResamplesLongTraces(t *testing.T) {
	day := cluster.DiurnalLoad(30, 300)
	got := traceProfile(day, 30*time.Second, 6, 20)
	if len(got) != 6 {
		t.Fatalf("%d segments, want 6: %v", len(got), got)
	}
	for i, s := range got {
		if s.Kind != "ramp" || s.Dur != 5*time.Second || s.From != math.RoundToEven(s.From) ||
			s.To != math.RoundToEven(s.To) || (i > 0 && s.From != got[i-1].To) {
			t.Fatalf("bad segment %d %v in %v", i, s, got)
		}
	}
}

func TestTraceProfileDegenerate(t *testing.T) {
	if got := traceProfile(nil, time.Second, 4, 1); got != nil {
		t.Fatalf("empty trace -> %v, want none", got)
	}
	// A single sample becomes one flat ramp.
	got := traceProfile(cluster.LoadTrace{5}, 2*time.Second, 4, 1)
	if want := (trafficgen.Profile{ramp(5000, 5000, 2*time.Second)}); !reflect.DeepEqual(got, want) {
		t.Fatalf("single sample -> %v, want %v", got, want)
	}
}

// replayFleet is one in-process member of each kind, each on its own
// loopback engine.
func replayFleet(t *testing.T) []Member {
	t.Helper()
	var members []Member
	for _, kind := range []string{"kvs", "dns", "paxos"} {
		m, err := StartMember(kind, kind+"-0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		members = append(members, m)
	}
	return members
}

// Replay drives each member's trace from this process: every request the
// profile makes due is sent (at most one pacer tick short at the end)
// and answered, by every kind of server.
func TestReplayLoopback(t *testing.T) {
	members := replayFleet(t)
	// A day each, offered at 300 to 3000 req/s over 300 ms.
	traces := map[string]cluster.LoadTrace{
		"kvs-0":   cluster.DiurnalLoad(30, 300),
		"dns-0":   cluster.DiurnalLoad(60, 200),
		"paxos-0": cluster.DiurnalLoad(100, 250),
	}
	cfg := ReplayConfig{Wall: 300 * time.Millisecond, RateScale: 100}
	// A tick on a loaded machine can overrun its millisecond, which ends
	// the last ramp early by that much; the bound is on the best of a few
	// runs so that only a pacer that is wrong, not one that was
	// descheduled, fails.
	var short []string
	for attempt := 0; attempt < 5; attempt++ {
		results, err := Replay(context.Background(), cfg, members, traces)
		if err != nil {
			t.Fatal(err)
		}
		short = short[:0]
		for i, r := range results {
			if r.Member != members[i].Name || r.Err != "" {
				t.Fatalf("result %d: %+v", i, r)
			}
			p := traceProfile(traces[r.Member], cfg.Wall, replaySegments, cfg.RateScale)
			due := p.Due(p.Total())
			last := p[len(p)-1]
			tick := uint64(math.Ceil(math.Max(last.From, last.To)*time.Millisecond.Seconds())) + 1
			if r.Sent > due || r.Answered != r.Sent || r.Bad != 0 || r.Outstanding != 0 {
				t.Fatalf("%s: sent %d of %d due, answered %d, bad %d, outstanding %d: want all answered",
					r.Member, r.Sent, due, r.Answered, r.Bad, r.Outstanding)
			}
			if r.Sent+tick < due {
				short = append(short, fmt.Sprintf("%s sent %d of %d due (tick %d)", r.Member, r.Sent, due, tick))
			}
		}
		if len(short) == 0 {
			return
		}
	}
	t.Fatalf("short by more than one tick: %v", short)
}

// Cancelling the context stops every generator at its next tick, long
// before the replay's wall time.
func TestReplayStopsWithContext(t *testing.T) {
	members := replayFleet(t)
	traces := map[string]cluster.LoadTrace{"kvs-0": {1, 1}, "dns-0": {1, 1}, "paxos-0": {1, 1}}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	results, err := Replay(ctx, ReplayConfig{Wall: time.Minute}, members, traces)
	if took := time.Since(start); took > 20*time.Second {
		t.Fatalf("replay took %v after its context ended at 500ms", took)
	}
	if err == nil {
		t.Fatal("a cancelled replay reported no error")
	}
	for _, r := range results {
		if r.Sent == 0 || !strings.Contains(r.Err, net.ErrClosed.Error()) {
			t.Errorf("%s: %+v, want traffic sent and then the sockets closed", r.Member, r)
		}
	}
}

func TestBuildReportTotalsAndDayExtrapolation(t *testing.T) {
	snap := Snapshot{
		Members: 2, K: 1, MaxLit: 1,
		Energy: EnergyTotals{
			ModeledSeconds:  43200, // half a day replayed
			SoftwareOnlyKWh: 2.0,
			OnDemandKWh:     1.5,
			SavedKWh:        0.5,
			SavedPct:        25,
		},
	}
	snap.Roster = []MemberStatus{{Name: "a", Dropped: 2}, {Name: "b", Dropped: 1}, {Name: "c"}}
	workers := []WorkerResult{
		{Member: "a", Sent: 100, Answered: 96, Bad: 1, Outstanding: 4},
		{Member: "b", Sent: 50, Answered: 50},
		{Member: "c", Err: "no trace"}, // never started
	}
	r := BuildReport(snap, nil, workers)
	if r.SentTotal != 150 || r.AnsweredTotal != 146 || r.WrongAnswers != 1 ||
		r.OutstandingTotal != 4 || r.DroppedTotal != 3 {
		t.Fatalf("totals: %+v", r)
	}
	// Half a day of 0.5 kWh saved extrapolates to 1 kWh/day.
	if r.SavedKWhDay != 1.0 || r.SoftwareOnlyKWhDay != 4.0 || r.OnDemandKWhDay != 3.0 {
		t.Fatalf("day extrapolation: %+v", r)
	}
}

func TestReportCheck(t *testing.T) {
	good := Report{
		K: 2,
		Snapshot: Snapshot{
			K: 2, MaxLit: 2, BudgetViolations: 0, ConcurrentShiftsMax: 1,
		},
		SentTotal: 1000, AnsweredTotal: 1000,
		SavedKWhDay: 0.5, SoftwareOnlyKWhDay: 4, OnDemandKWhDay: 3.5,
	}
	if err := good.Check(); err != nil {
		t.Fatalf("clean run failed check: %v", err)
	}
	atBound := good
	atBound.AnsweredTotal = 999 // one lost in a thousand
	if err := atBound.Check(); err != nil {
		t.Errorf("a run that lost 0.1%% failed check: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"budget violated", func(r *Report) { r.Snapshot.BudgetViolations = 3 }, "budget violated"},
		{"budget under-used", func(r *Report) { r.Snapshot.MaxLit = 1 }, "under-used"},
		{"overlapping shifts", func(r *Report) { r.Snapshot.ConcurrentShiftsMax = 2 }, "not staggered"},
		{"wrong answers", func(r *Report) { r.WrongAnswers = 7 }, "wrong answers"},
		{"no traffic", func(r *Report) { r.AnsweredTotal = 0 }, "no traffic"},
		{"lost 0.7%", func(r *Report) { r.AnsweredTotal, r.OutstandingTotal, r.DroppedTotal = 993, 7, 2 },
			"answered 993 of 1000 sent (99.30%), want at least 99.9% (7 outstanding at the generators, 2 dropped by the engines)"},
		{"no saving", func(r *Report) { r.SavedKWhDay = -0.1 }, "no energy saved"},
	}
	for _, tc := range cases {
		r := good
		tc.mutate(&r)
		err := r.Check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
