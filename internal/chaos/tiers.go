package chaos

import (
	"errors"
	"net/netip"

	"incod/internal/dataplane"
	"incod/internal/nictier"
	"incod/internal/telemetry"
)

// errTierCrashed is what every lifecycle call against a crashed card
// returns — the transition task finding the accelerator gone.
var errTierCrashed = errors.New("chaos: tier hardware crashed")

// CrashableTier wraps a real nictier.Tier with schedulable hardware
// failure, the two crash modes the §9.2 transition design must survive:
//
//   - ArmStageCrash kills the card between Stage and the dispatch flip:
//     the next Warm fails *before* the inner tier's bulk transfer runs,
//     so no state has left the host when nictier.Service rolls the
//     up-shift back. For the Paxos tier that means BeginHandoff never
//     executes — the acceptor table never leaves the host role.
//   - Crash kills the card while lit: the fast path stops consuming
//     (TryHandle* fall through untouched), so every datagram lands on
//     the host handler until the orchestrator fails the service back.
//
// Park always reaches the inner tier — it is host-side cleanup and must
// work even when the card is dead, or a crashed tier could never be
// drained back to software.
type CrashableTier struct {
	inner nictier.Tier

	crashed    bool
	armAtStage bool
	crashes    int
}

var _ nictier.Tier = (*CrashableTier)(nil)
var _ dataplane.BatchFastPath = (*CrashableTier)(nil)

// NewCrashableTier wraps inner.
func NewCrashableTier(inner nictier.Tier) *CrashableTier {
	return &CrashableTier{inner: inner}
}

// ArmStageCrash makes the next Stage succeed and then kill the card, so
// the following Warm fails mid-shift.
func (t *CrashableTier) ArmStageCrash() { t.armAtStage = true }

// Crash kills the card immediately (mid-serving when lit).
func (t *CrashableTier) Crash() {
	t.crashed = true
	t.crashes++
}

// Restart revives the card. Tier state is whatever the lifecycle left —
// recovery is the orchestrator's job (shift down, shift back up).
func (t *CrashableTier) Restart() { t.crashed = false }

// Crashed reports whether the card is currently dead.
func (t *CrashableTier) Crashed() bool { return t.crashed }

// Stage implements nictier.Tier. A dead card cannot be staged; an armed
// stage-crash lets Stage succeed and then kills the card.
func (t *CrashableTier) Stage() error {
	if t.crashed {
		return errTierCrashed
	}
	if err := t.inner.Stage(); err != nil {
		return err
	}
	if t.armAtStage {
		t.armAtStage = false
		t.Crash()
	}
	return nil
}

// Warm implements nictier.Tier, failing before the inner bulk transfer
// when the card died after Stage.
func (t *CrashableTier) Warm() error {
	if t.crashed {
		return errTierCrashed
	}
	return t.inner.Warm()
}

// Park implements nictier.Tier. Host-side cleanup always runs.
func (t *CrashableTier) Park() error { return t.inner.Park() }

// TryHandleDatagram implements dataplane.FastPath: a crashed card serves
// nothing, everything falls through to the host.
func (t *CrashableTier) TryHandleDatagram(in []byte, src netip.AddrPort, scratch *[]byte) ([]byte, bool, bool) {
	if t.crashed {
		return nil, false, false
	}
	return t.inner.TryHandleDatagram(in, src, scratch)
}

// TryHandleBatch implements dataplane.BatchFastPath, leaving the whole
// batch untouched when crashed.
func (t *CrashableTier) TryHandleBatch(items []*dataplane.BatchItem) {
	if t.crashed {
		return
	}
	dataplane.OfferBatch(t.inner, items)
}

// Name, Counters, HitRatio, PowerWatts delegate to the wrapped tier.
func (t *CrashableTier) Name() string                        { return t.inner.Name() }
func (t *CrashableTier) Counters() *telemetry.AtomicCounters { return t.inner.Counters() }
func (t *CrashableTier) HitRatio() float64                   { return t.inner.HitRatio() }
func (t *CrashableTier) PowerWatts() float64                 { return t.inner.PowerWatts() }
