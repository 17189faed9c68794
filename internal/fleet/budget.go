package fleet

import "sort"

// Candidate is one fleet member's offload ranking input for a planning
// tick: who it is, whether its tier is lit or mid-shift, and the modeled
// watts the fleet would save (or is saving) by serving it from the NIC.
type Candidate struct {
	// Name uniquely identifies the member (its control address).
	Name string
	// Lit reports whether the member's offload tier currently serves.
	Lit bool
	// Shifting reports a placement transition in flight.
	Shifting bool
	// SavingW is the modeled watts saved by network placement at the
	// member's current offered load: P_sw(kpps) - P_ondemand(kpps).
	// Negative means offload costs power at this load.
	SavingW float64
}

// ActionKind is what the scheduler wants done to one member.
type ActionKind int

// Actions.
const (
	// Light pins the member's service to the network tier.
	Light ActionKind = iota
	// Douse pins the member's service back to the host.
	Douse
)

// String names the action.
func (k ActionKind) String() string {
	if k == Douse {
		return "douse"
	}
	return "light"
}

// Action is one placement change the controller should apply.
type Action struct {
	Kind   ActionKind
	Member string
	// Reason is a human-readable justification for the transition log.
	Reason string
}

// SchedulerConfig tunes the budget scheduler's hysteresis.
type SchedulerConfig struct {
	// K is the global budget: the maximum number of simultaneously lit
	// offload tiers.
	K int
	// Hold is how many consecutive ticks a verdict (light X, douse Y,
	// swap X for Y) must repeat before the action is emitted. Minimum 1.
	Hold int
}

// The scheduler's margins, in watts of saving, suit the §4 power curves,
// where lighting a tier pays ~7 W of NIC base power before any saving.
const (
	// lightMarginW: a dark member only becomes light-eligible when its
	// saving exceeds this.
	lightMarginW = 1.0
	// douseMarginW: a lit member is only doused when its saving falls
	// below this; it is below lightMarginW for hysteresis.
	douseMarginW = 0.25
	// swapMarginW: a dark challenger only preempts a lit incumbent when
	// it out-saves it by at least this much.
	swapMarginW = 2.0
)

// DefaultSchedulerConfig returns a budget of k lit tiers held for 3
// ticks.
func DefaultSchedulerConfig(k int) SchedulerConfig {
	return SchedulerConfig{K: k, Hold: 3}
}

// Scheduler plans at most one placement action per tick under a global
// lit-tier budget. See the package doc for the invariants it maintains.
// It is not safe for concurrent use; the controller owns it.
type Scheduler struct {
	cfg SchedulerConfig
	// streak counts consecutive ticks the same verdict has been planned.
	streak     int
	lastAction Action
	lastValid  bool
}

// NewScheduler builds a scheduler, normalising degenerate config.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Hold < 1 {
		cfg.Hold = 1
	}
	if cfg.K < 0 {
		cfg.K = 0
	}
	return &Scheduler{cfg: cfg}
}

// Config returns the normalised configuration.
func (s *Scheduler) Config() SchedulerConfig { return s.cfg }

// Plan ranks the candidates and returns at most one action. It returns
// (Action{}, false) when nothing should change this tick — including
// whenever any member is still shifting, which is what staggers
// transitions fleet-wide.
func (s *Scheduler) Plan(cands []Candidate) (Action, bool) {
	for _, c := range cands {
		if c.Shifting {
			// A migration is in flight somewhere; hold everything.
			s.reset()
			return Action{}, false
		}
	}

	want, ok := s.verdict(cands)
	if !ok {
		s.reset()
		return Action{}, false
	}
	if s.lastValid && want == s.lastAction {
		s.streak++
	} else {
		s.lastAction, s.lastValid, s.streak = want, true, 1
	}
	if s.streak < s.cfg.Hold {
		return Action{}, false
	}
	s.reset()
	return want, true
}

func (s *Scheduler) reset() {
	s.streak, s.lastValid = 0, false
}

// verdict computes the single most urgent action, ignoring hold.
// Priority: douse over-budget > douse unprofitable > light under budget >
// swap (douse incumbent first).
func (s *Scheduler) verdict(cands []Candidate) (Action, bool) {
	lit := make([]Candidate, 0, len(cands))
	dark := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if c.Lit {
			lit = append(lit, c)
		} else {
			dark = append(dark, c)
		}
	}
	// Rank best-first; ties break by name so planning is deterministic.
	byRank := func(cs []Candidate) {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].SavingW != cs[j].SavingW {
				return cs[i].SavingW > cs[j].SavingW
			}
			return cs[i].Name < cs[j].Name
		})
	}
	byRank(lit)
	byRank(dark)

	// Over budget (K was lowered, or an adopted fleet came up lit):
	// douse the worst lit member.
	if len(lit) > s.cfg.K {
		w := lit[len(lit)-1]
		return Action{Douse, w.Name, "over budget"}, true
	}
	// A lit member that no longer pays for itself goes dark regardless
	// of spare budget.
	if len(lit) > 0 {
		w := lit[len(lit)-1]
		if w.SavingW < douseMarginW {
			return Action{Douse, w.Name, "unprofitable"}, true
		}
	}
	// Spare budget: light the best dark member that clears the margin.
	if len(lit) < s.cfg.K && len(dark) > 0 && dark[0].SavingW > lightMarginW {
		return Action{Light, dark[0].Name, "best saving under budget"}, true
	}
	// Budget full: a sufficiently better challenger preempts the worst
	// incumbent. Douse first — the challenger lights on a later tick, so
	// the lit count never exceeds K.
	if len(lit) == s.cfg.K && s.cfg.K > 0 && len(dark) > 0 {
		worst := lit[len(lit)-1]
		if dark[0].SavingW > worst.SavingW+swapMarginW &&
			dark[0].SavingW > lightMarginW {
			return Action{Douse, worst.Name, "preempted by " + dark[0].Name}, true
		}
	}
	return Action{}, false
}
