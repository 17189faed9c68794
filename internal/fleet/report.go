package fleet

import (
	"encoding/json"
	"fmt"
	"os"
)

// Report is the machine-readable outcome of one fleet run — the payload
// of FLEET_6.json, the live counterpart of the simulated day saving
// (cluster.DaySaving) that examples/datacenter_sweep prints.
type Report struct {
	// Members and K restate the run's shape.
	Members int `json:"members"`
	K       int `json:"k"`

	// Snapshot is the controller's final fleet state, including the
	// measured scheduler invariants (max_lit, budget_violations,
	// concurrent_shifts_max) and the integrated energy account.
	Snapshot Snapshot `json:"snapshot"`

	// Curve is the tick-by-tick fleet draw, software-only vs on-demand.
	Curve []CurvePoint `json:"curve"`

	// Workers are the load generators' end-of-run counts.
	Workers []WorkerResult `json:"workers"`

	// Traffic totals across all workers. WrongAnswers sums replies that
	// failed to decode (the generators' bad counters). OutstandingTotal
	// counts the requests the generators still waited for at the end.
	// DroppedTotal counts the datagrams the member engines received and
	// dropped, a KVS generator's preload SETs included, which no
	// generator count holds. An outstanding request that no engine
	// dropped was lost in the kernel's socket buffers, on the way to an
	// engine or back.
	SentTotal        uint64 `json:"sent_total"`
	AnsweredTotal    uint64 `json:"answered_total"`
	WrongAnswers     uint64 `json:"wrong_answers"`
	OutstandingTotal uint64 `json:"outstanding_total"`
	DroppedTotal     uint64 `json:"dropped_total"`

	// Day extrapolation: the modeled energy account scaled to 24 hours,
	// so runs replaying partial or compressed days report comparable
	// kWh/day figures.
	SoftwareOnlyKWhDay float64 `json:"software_only_kwh_day"`
	OnDemandKWhDay     float64 `json:"on_demand_kwh_day"`
	SavedKWhDay        float64 `json:"saved_kwh_day"`
	SavedPct           float64 `json:"saved_pct"`
}

// BuildReport assembles the run outcome from the controller's final
// snapshot and curve plus the workers' counts.
func BuildReport(snap Snapshot, curve []CurvePoint, workers []WorkerResult) Report {
	r := Report{
		Members:  snap.Members,
		K:        snap.K,
		Snapshot: snap,
		Curve:    curve,
		Workers:  workers,
		SavedPct: snap.Energy.SavedPct,
	}
	for _, w := range workers {
		r.SentTotal += w.Sent
		r.AnsweredTotal += w.Answered
		r.WrongAnswers += w.Bad
		r.OutstandingTotal += uint64(w.Outstanding)
	}
	for _, m := range snap.Roster {
		r.DroppedTotal += m.Dropped
	}
	if secs := snap.Energy.ModeledSeconds; secs > 0 {
		f := 86400 / secs
		r.SoftwareOnlyKWhDay = snap.Energy.SoftwareOnlyKWh * f
		r.OnDemandKWhDay = snap.Energy.OnDemandKWh * f
		r.SavedKWhDay = snap.Energy.SavedKWh * f
	}
	return r
}

// WriteFile writes the report as indented JSON.
func (r Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// minAnsweredShare is the least share of what the generators sent that
// a run must have answered. The paper's shifts go unnoticed by clients,
// so a fleet that loses more than one request in a thousand fails
// however much energy it saved.
const minAnsweredShare = 0.999

// Check asserts the run reproduced the paper's fleet claims: the budget
// was never violated, the full budget was exercised at peak, shifts were
// staggered, no generator saw a wrong answer, at least minAnsweredShare
// of the traffic was answered, and on-demand offload saved energy. It
// returns every failure joined, nil on a clean run.
func (r Report) Check() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if r.Snapshot.BudgetViolations > 0 {
		fail("budget violated on %d ticks (max lit %d > k=%d)",
			r.Snapshot.BudgetViolations, r.Snapshot.MaxLit, r.K)
	}
	if r.Snapshot.MaxLit < r.K {
		fail("budget under-used: max lit %d, want k=%d at peak", r.Snapshot.MaxLit, r.K)
	}
	if r.Snapshot.ConcurrentShiftsMax > 1 {
		fail("shifts not staggered: %d concurrent transitions observed",
			r.Snapshot.ConcurrentShiftsMax)
	}
	if r.WrongAnswers > 0 {
		fail("%d wrong answers across %d sent", r.WrongAnswers, r.SentTotal)
	}
	if r.AnsweredTotal == 0 {
		fail("no traffic answered (sent %d)", r.SentTotal)
	} else if float64(r.AnsweredTotal) < minAnsweredShare*float64(r.SentTotal) {
		fail("answered %d of %d sent (%.2f%%), want at least %.1f%% (%d outstanding at the generators, %d dropped by the engines)",
			r.AnsweredTotal, r.SentTotal, 100*float64(r.AnsweredTotal)/float64(r.SentTotal), 100*minAnsweredShare,
			r.OutstandingTotal, r.DroppedTotal)
	}
	if r.SavedKWhDay <= 0 {
		fail("no energy saved: %.4f kWh/day (software-only %.4f, on-demand %.4f)",
			r.SavedKWhDay, r.SoftwareOnlyKWhDay, r.OnDemandKWhDay)
	}
	if len(errs) == 0 {
		return nil
	}
	joined := "fleet: run assertions failed:"
	for _, e := range errs {
		joined += "\n  - " + e.Error()
	}
	return fmt.Errorf("%s", joined)
}
