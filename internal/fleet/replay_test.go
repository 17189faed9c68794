package fleet

import (
	"strings"
	"testing"
	"time"

	"incod/internal/cluster"
	"incod/internal/trafficgen"
)

func TestProfileStringRampsAndScale(t *testing.T) {
	trace := cluster.LoadTrace{10, 20, 30} // modeled kpps
	got := ProfileString(trace, 10*time.Second, 2, 10)
	want := "ramp:1000-2000:5s,ramp:2000-3000:5s"
	if got != want {
		t.Fatalf("profile = %q, want %q", got, want)
	}
}

func TestProfileStringResamplesLongTraces(t *testing.T) {
	day := cluster.DiurnalLoad(30, 300)
	got := ProfileString(day, 30*time.Second, 6, 20)
	phases := strings.Split(got, ",")
	if len(phases) != 6 {
		t.Fatalf("%d phases, want 6: %q", len(phases), got)
	}
	for _, p := range phases {
		if !strings.HasPrefix(p, "ramp:") || !strings.HasSuffix(p, ":5s") {
			t.Fatalf("bad phase %q in %q", p, got)
		}
	}
}

func TestProfileStringDegenerate(t *testing.T) {
	if got := ProfileString(nil, time.Second, 4, 1); got != "" {
		t.Fatalf("empty trace -> %q, want empty", got)
	}
	// A single sample becomes one flat ramp.
	got := ProfileString(cluster.LoadTrace{5}, 2*time.Second, 4, 1)
	if got != "ramp:5000-5000:2s" {
		t.Fatalf("single sample -> %q", got)
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
	workers := []WorkerResult{
		{Member: "a", Report: &trafficgen.Report{Sent: 100, Answered: 99, Bad: 1}},
		{Member: "b", Report: &trafficgen.Report{Sent: 50, Answered: 50}},
		{Member: "c"}, // died before reporting
	}
	r := BuildReport(snap, nil, workers)
	if r.SentTotal != 150 || r.AnsweredTotal != 149 || r.WrongAnswers != 1 {
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
		SentTotal: 1000, AnsweredTotal: 990,
		SavedKWhDay: 0.5, SoftwareOnlyKWhDay: 4, OnDemandKWhDay: 3.5,
	}
	if err := good.Check(); err != nil {
		t.Fatalf("clean run failed check: %v", err)
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
