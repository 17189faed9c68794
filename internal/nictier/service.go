package nictier

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"incod/internal/core"
	"incod/internal/dataplane"
)

// Dataplane is the slice of a serving engine a placement shift drives:
// install the offload tier on dispatch, drain it back out, and fence
// in-flight host work. *dataplane.Engine implements it for the live
// daemons; simhost.Node implements it over the deterministic simnet
// substrate, so the same Service code shifts in the paper figures and
// under chaos fault injection.
type Dataplane interface {
	// SetFastPath atomically interposes fp on dispatch (nil clears).
	SetFastPath(fp dataplane.FastPath)
	// ClearFastPath uninstalls the tier and drains it: no call may still
	// be inside the tier when it returns.
	ClearFastPath()
	// Barrier returns once every dispatch in flight at the call has fully
	// landed — the fence between flipping dispatch and snapshotting host
	// state.
	Barrier()
}

// Service binds a Tier to a serving engine as a core.Service: Shift is
// no longer advisory. Shifting to the network stages the tier, flips
// engine dispatch, fences pre-flip host work, and warms (the §9.2
// transition task) while the host keeps serving every fall-through;
// shifting back drains the fast path without dropping an in-flight
// request, then parks the tier. The orchestrator drives it exactly like
// any other core.Service — same policies, same /v1 API.
type Service struct {
	name string
	eng  Dataplane
	tier Tier

	// shiftMu serializes transitions only. Placement and the transition
	// durations are atomics so status reads (taken under the
	// orchestrator mutex) never block behind a long warm-up or drain.
	shiftMu   sync.Mutex
	where     atomic.Int32 // core.Placement
	lastWarm  atomic.Int64 // nanoseconds
	lastDrain atomic.Int64 // nanoseconds
}

var _ core.Service = (*Service)(nil)
var _ core.TaskNamer = (*Service)(nil)

// NewService binds tier to eng under name. The service starts on the
// host (tier parked, host handler serving everything).
func NewService(name string, eng Dataplane, tier Tier) *Service {
	return &Service{name: name, eng: eng, tier: tier}
}

// Name implements core.Service.
func (s *Service) Name() string { return s.name }

// Placement implements core.Service. It never blocks — not even while a
// transition is in flight — so orchestrator status snapshots stay cheap.
func (s *Service) Placement() core.Placement {
	return core.Placement(s.where.Load())
}

// LastTransitions returns the measured durations of the most recent
// up-shift (warm) and down-shift (drain), zero when not yet performed.
func (s *Service) LastTransitions() (warm, drain time.Duration) {
	return time.Duration(s.lastWarm.Load()), time.Duration(s.lastDrain.Load())
}

// Shift implements core.Service, performing the real transition work.
func (s *Service) Shift(to core.Placement) error {
	s.shiftMu.Lock()
	defer s.shiftMu.Unlock()
	if to == s.Placement() {
		return nil
	}
	start := time.Now()
	if to == core.Network {
		if err := s.tier.Stage(); err != nil {
			return fmt.Errorf("nictier: stage %s: %w", s.tier.Name(), err)
		}
		// Install the fast path first (write interposition from here
		// on), fence the host work that predates the flip, then bulk
		// warm — so nothing falls between the snapshot and the flip.
		s.eng.SetFastPath(s.tier)
		s.eng.Barrier()
		if err := s.tier.Warm(); err != nil {
			s.eng.ClearFastPath()
			_ = s.tier.Park()
			return fmt.Errorf("nictier: warm %s: %w", s.tier.Name(), err)
		}
		s.lastWarm.Store(int64(time.Since(start)))
	} else {
		// Drain the fast path — in-flight tier requests finish and are
		// answered — then park (state flushed or handed back).
		s.eng.ClearFastPath()
		if err := s.tier.Park(); err != nil {
			// Roll the drain back: reinstall the tier so dispatch matches
			// the placement still being reported (network). Without this a
			// failed park strands the service between placements — status
			// says network while every datagram already bypasses the tier.
			s.eng.SetFastPath(s.tier)
			return fmt.Errorf("nictier: park %s: %w", s.tier.Name(), err)
		}
		s.lastDrain.Store(int64(time.Since(start)))
	}
	s.where.Store(int32(to))
	return nil
}

// TransitionTask implements core.TaskNamer: the §9.2 task, which runs
// concurrently with serving in both directions, and, once measured, how
// long the last one took.
func (s *Service) TransitionTask(to core.Placement) string {
	warm, drain := s.LastTransitions()
	if to == core.Network {
		task := s.tier.Name() + " warm-up"
		if warm > 0 {
			task += fmt.Sprintf(" (last %v)", warm.Round(time.Microsecond))
		}
		return task
	}
	task := s.tier.Name() + " drain+park"
	if drain > 0 {
		task += fmt.Sprintf(" (last %v)", drain.Round(time.Microsecond))
	}
	return task
}
