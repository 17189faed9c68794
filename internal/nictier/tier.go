package nictier

import (
	"time"

	"incod/internal/dataplane"
	"incod/internal/fpga"
	"incod/internal/telemetry"
)

// Tier is one emulated NIC offload module: a dataplane fast path with the
// shift lifecycle Service drives. The up-shift sequence is
// Stage -> SetFastPath -> Barrier -> Warm, so a tier starts interposing
// on the write path (and falling through on reads) before its bulk state
// transfer runs; the down-shift sequence is ClearFastPath -> Park.
type Tier interface {
	dataplane.FastPath
	// Name identifies the tier in stats and logs ("lake", "emu-dns",
	// "p4xos-acceptor").
	Name() string
	// Stage arms the tier for installation: state cleared, write
	// interposition enabled, serving still falling through. Called
	// before engine dispatch flips to the tier.
	Stage() error
	// Warm performs the §9.2 bulk transition work — cache warm-up from
	// the store, zone snapshot install, acceptor state handoff — with
	// the tier already installed and pre-flip host work fenced, so no
	// update can fall between the snapshot and the flip. The host keeps
	// serving throughout.
	Warm() error
	// Park performs the down-shift transition work after the fast path
	// has been drained: flush caches, drop tables, hand state back.
	Park() error
	// Counters exposes the tier's protocol counters (folded into
	// dataplane Stats as the "tier" map).
	Counters() *telemetry.AtomicCounters
	// HitRatio is the fraction of tier-classified traffic the tier
	// served itself rather than passing to the host.
	HitRatio() float64
	// PowerWatts is the card's modeled in-server power increment right
	// now: the active design draw while serving, the park-reset draw
	// while idle. The serving draw follows the request rate over the last
	// second; a poller that looks less often than that gets the draw at
	// the mean rate since its previous look.
	PowerWatts() float64
}

// cardPower is a tier's card power model (§5): one fpga.Board
// programmed with the design and serving, one parked the §9.2 way —
// module off, memory interfaces in reset, clocks gated, still forwarding
// as a NIC — and the meter of classified requests that sets the serving
// board's utilization, a one-second window on the wall clock since born.
// The boards are built once and never mutated afterwards, because
// PowerWatts is read concurrently with serving.
type cardPower struct {
	lit, parked *fpga.Board
	meter       *telemetry.AtomicRateMeter
	born        time.Time
}

func newCardPower(design fpga.Config) cardPower {
	parked := fpga.NewBoard(design)
	parked.SetModuleActive(false)
	parked.SetMemoryReset(true)
	parked.SetClockGating(true)
	return cardPower{
		lit:    fpga.NewBoard(design),
		parked: parked,
		meter:  telemetry.NewAtomicRateMeter(100*time.Millisecond, 10),
		born:   time.Now(),
	}
}

// watts is the card's in-server power increment right now: the design's
// draw at the metered utilization (rate over peak, which CardWatts clamps
// to [0,1]) while serving, the parked draw while idle.
func (p cardPower) watts(active bool) float64 {
	if !active {
		return p.parked.CardWatts(0)
	}
	return p.lit.CardWatts(p.meter.Rate(time.Since(p.born)) / 1000 / p.lit.PeakKpps())
}
