package fleet

import "testing"

func plan(t *testing.T, s *Scheduler, cands []Candidate) (Action, bool) {
	t.Helper()
	return s.Plan(cands)
}

// planUntil ticks the same candidate set until an action fires or limit
// ticks pass.
func planUntil(t *testing.T, s *Scheduler, cands []Candidate, limit int) (Action, bool) {
	t.Helper()
	for i := 0; i < limit; i++ {
		if a, ok := s.Plan(cands); ok {
			return a, true
		}
	}
	return Action{}, false
}

func TestSchedulerHoldDelaysAction(t *testing.T) {
	s := NewScheduler(SchedulerConfig{K: 1, Hold: 3})
	cands := []Candidate{{Name: "a", SavingW: 10}}
	for i := 0; i < 2; i++ {
		if _, ok := plan(t, s, cands); ok {
			t.Fatalf("action on tick %d, want held for 3", i+1)
		}
	}
	a, ok := plan(t, s, cands)
	if !ok || a.Kind != Light || a.Member != "a" {
		t.Fatalf("tick 3 = %+v %v, want light a", a, ok)
	}
}

func TestSchedulerChangedVerdictResetsHold(t *testing.T) {
	s := NewScheduler(SchedulerConfig{K: 1, Hold: 2})
	plan(t, s, []Candidate{{Name: "a", SavingW: 10}})
	// The front-runner changes: the streak must restart, not carry over.
	if _, ok := plan(t, s, []Candidate{{Name: "b", SavingW: 20}}); ok {
		t.Fatal("verdict changed but action still fired")
	}
	a, ok := plan(t, s, []Candidate{{Name: "b", SavingW: 20}})
	if !ok || a.Member != "b" {
		t.Fatalf("got %+v %v, want light b after fresh hold", a, ok)
	}
}

func TestSchedulerNeverLightsBeyondBudget(t *testing.T) {
	s := NewScheduler(SchedulerConfig{K: 2, Hold: 1})
	cands := []Candidate{
		{Name: "a", Lit: true, SavingW: 10},
		{Name: "b", Lit: true, SavingW: 9},
		{Name: "c", SavingW: 8},
	}
	if a, ok := plan(t, s, cands); ok {
		t.Fatalf("budget full but planned %+v", a)
	}
}

func TestSchedulerNoActionWhileAnyShifting(t *testing.T) {
	s := NewScheduler(SchedulerConfig{K: 2, Hold: 1})
	cands := []Candidate{
		{Name: "a", SavingW: 50},
		{Name: "b", Shifting: true, SavingW: 2},
	}
	if a, ok := plan(t, s, cands); ok {
		t.Fatalf("member shifting but planned %+v", a)
	}
}

func TestSchedulerDousesOverBudget(t *testing.T) {
	// K lowered (or an adopted fleet came up lit): the worst lit member
	// goes dark first.
	s := NewScheduler(SchedulerConfig{K: 1, Hold: 1})
	cands := []Candidate{
		{Name: "a", Lit: true, SavingW: 10},
		{Name: "b", Lit: true, SavingW: 4},
	}
	a, ok := plan(t, s, cands)
	if !ok || a.Kind != Douse || a.Member != "b" {
		t.Fatalf("got %+v %v, want douse b", a, ok)
	}
}

func TestSchedulerDousesUnprofitable(t *testing.T) {
	s := NewScheduler(SchedulerConfig{K: 2, Hold: 1})
	cands := []Candidate{{Name: "a", Lit: true, SavingW: -3}}
	a, ok := plan(t, s, cands)
	if !ok || a.Kind != Douse || a.Member != "a" {
		t.Fatalf("got %+v %v, want douse a", a, ok)
	}
}

func TestSchedulerHysteresisBand(t *testing.T) {
	// Saving between the douse and light margins must move nothing in
	// either direction — that band is what stops flapping.
	s := NewScheduler(SchedulerConfig{K: 1, Hold: 1})
	if a, ok := plan(t, s, []Candidate{{Name: "a", SavingW: 0.5}}); ok {
		t.Fatalf("dark member inside band lit: %+v", a)
	}
	if a, ok := plan(t, s, []Candidate{{Name: "a", Lit: true, SavingW: 0.5}}); ok {
		t.Fatalf("lit member inside band doused: %+v", a)
	}
}

func TestSchedulerSwapDousesFirstThenLights(t *testing.T) {
	s := NewScheduler(SchedulerConfig{K: 1, Hold: 1})
	cands := []Candidate{
		{Name: "weak", Lit: true, SavingW: 3},
		{Name: "strong", SavingW: 10},
	}
	a, ok := plan(t, s, cands)
	if !ok || a.Kind != Douse || a.Member != "weak" {
		t.Fatalf("swap step 1 = %+v %v, want douse weak", a, ok)
	}
	// After the douse lands, the challenger lights on a later tick — the
	// lit count never passes through K+1.
	cands = []Candidate{
		{Name: "weak", SavingW: 3},
		{Name: "strong", SavingW: 10},
	}
	a, ok = plan(t, s, cands)
	if !ok || a.Kind != Light || a.Member != "strong" {
		t.Fatalf("swap step 2 = %+v %v, want light strong", a, ok)
	}
}

func TestSchedulerSwapNeedsMargin(t *testing.T) {
	s := NewScheduler(SchedulerConfig{K: 1, Hold: 1})
	cands := []Candidate{
		{Name: "weak", Lit: true, SavingW: 3},
		{Name: "strong", SavingW: 4.5}, // better, but not by swapMarginW
	}
	if a, ok := plan(t, s, cands); ok {
		t.Fatalf("marginal challenger swapped: %+v", a)
	}
}

func TestSchedulerDeterministicTieBreak(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		s := NewScheduler(SchedulerConfig{K: 1, Hold: 1})
		cands := []Candidate{
			{Name: "zeta", SavingW: 7},
			{Name: "alpha", SavingW: 7},
		}
		a, ok := plan(t, s, cands)
		if !ok || a.Member != "alpha" {
			t.Fatalf("trial %d: got %+v %v, want alpha by name order", trial, a, ok)
		}
	}
}

func TestSchedulerConvergesToKAndStops(t *testing.T) {
	// Drive a 6-member fleet to steady state, applying each action to
	// the candidate set, and verify: lit never exceeds K, and once the
	// best K are lit the scheduler goes quiet.
	s := NewScheduler(SchedulerConfig{K: 2, Hold: 2})
	cands := []Candidate{
		{Name: "a", SavingW: 9},
		{Name: "b", SavingW: 7},
		{Name: "c", SavingW: 5},
		{Name: "d", SavingW: 3},
		{Name: "e", SavingW: -2},
		{Name: "f", SavingW: 0.5},
	}
	actions := 0
	for tick := 0; tick < 50; tick++ {
		a, ok := s.Plan(cands)
		if !ok {
			continue
		}
		actions++
		lit := 0
		for i := range cands {
			if cands[i].Name == a.Member {
				cands[i].Lit = a.Kind == Light
			}
			if cands[i].Lit {
				lit++
			}
		}
		if lit > 2 {
			t.Fatalf("budget violated after %+v: %d lit", a, lit)
		}
	}
	var litNames []string
	for _, c := range cands {
		if c.Lit {
			litNames = append(litNames, c.Name)
		}
	}
	if len(litNames) != 2 || litNames[0] != "a" || litNames[1] != "b" {
		t.Fatalf("steady state lit %v, want [a b]", litNames)
	}
	if actions != 2 {
		t.Fatalf("%d actions to converge, want exactly 2 (no flapping)", actions)
	}
	// Steady state stays steady.
	if a, ok := planUntil(t, s, cands, 10); ok {
		t.Fatalf("steady fleet still planned %+v", a)
	}
}
