// Package power models the power draw of the servers and software stacks
// in the paper's testbed. A SoftwareCurve is one application on the §4
// i7-6700K server with its NIC, as a function of the offered rate; a
// CPUModel is a whole server by busy cores and utilization, for the §5.4
// and §7 machines.
//
// All constants are calibrated against numbers printed in the paper:
//
//   - §4.2: i7-6700K server idle = 39 W (with NIC); memcached peak ≈ 1 Mpps.
//   - §4.3: libpaxos acceptor peak 178 K msgs/s on one core; DPDK draws high,
//     nearly constant power because it polls.
//   - §4.4: NSD peak 956 Kqps; at peak the server draws ~2x Emu DNS's 48 W.
//   - §5.4: Xeon E5-2637 v4 (SuperMicro X10-DRG-Q) idle = 83 W without NIC.
//   - §7: dual Xeon E5-2660 v4 idle 56 W, 91 W with one core busy, 134 W
//     at full load, ~86 W at 10% single-core load, 1-2 W per extra core.
//
// Model outputs are wall watts (the paper measures at the wall with an
// SHW-3A meter, PSU overhead included).
package power

import "math"

// CPUModel is a whole-server power model parameterized by active core count
// and per-core utilization. Its shape follows the §7 observations: a large
// jump when the first core wakes (shared uncore, both sockets), a small
// per-additional-core increment, and a saturating response to utilization.
type CPUModel struct {
	Sockets        int
	CoresPerSocket int
	// IdleWatts is the whole-server idle draw.
	IdleWatts float64
	// FirstCoreJumpWatts is added (saturating in utilization) as soon as
	// any core is active. §7: 56 W -> 91 W with a single busy core.
	FirstCoreJumpWatts float64
	// ExtraCoreWatts is added per additional active core. §7: 1-2 W.
	ExtraCoreWatts float64
	// SaturationUtil is the utilization scale of the first-core jump;
	// §7 reports 86 W at only 10% load, so the jump saturates fast.
	SaturationUtil float64
	// LoadSlopeWatts is the remaining dynamic power at 100% aggregate
	// utilization across all cores, applied linearly.
	LoadSlopeWatts float64
}

// Cores returns the total core count.
func (m CPUModel) Cores() int { return m.Sockets * m.CoresPerSocket }

// saturate maps utilization (0..1) to the fraction of the first-core jump.
func (m CPUModel) saturate(util float64) float64 {
	if util <= 0 {
		return 0
	}
	s := m.SaturationUtil
	if s <= 0 {
		s = 0.05
	}
	return 1 - math.Exp(-util/s)
}

// Power returns wall watts with activeCores cores busy at the given
// per-core utilization (0..1). Zero active cores is idle.
func (m CPUModel) Power(activeCores int, util float64) float64 {
	if activeCores <= 0 || util <= 0 {
		return m.IdleWatts
	}
	if activeCores > m.Cores() {
		activeCores = m.Cores()
	}
	if util > 1 {
		util = 1
	}
	p := m.IdleWatts + m.FirstCoreJumpWatts*m.saturate(util)
	p += float64(activeCores-1) * m.ExtraCoreWatts
	agg := float64(activeCores) * util / float64(m.Cores())
	p += m.LoadSlopeWatts * agg
	return p
}

// SocketPower splits the §7 per-socket breakdown: the idle draw divides
// evenly between sockets, and the first-core jump raises both sockets
// "almost equally" (60/40 toward the socket running the core).
func (m CPUModel) SocketPower(activeCores int, util float64) []float64 {
	total := m.Power(activeCores, util)
	if m.Sockets <= 1 {
		return []float64{total}
	}
	out := make([]float64, m.Sockets)
	idleShare := m.IdleWatts / float64(m.Sockets)
	dyn := total - m.IdleWatts
	for i := range out {
		out[i] = idleShare
	}
	// Socket 0 hosts the active cores and takes 60% of the dynamic power;
	// the remainder spreads over the other sockets.
	if dyn > 0 {
		out[0] += 0.6 * dyn
		rest := 0.4 * dyn / float64(m.Sockets-1)
		for i := 1; i < m.Sockets; i++ {
			out[i] += rest
		}
	}
	return out
}

// Predefined server models (calibration sources in the package comment).
var (
	// XeonE52637v4 is the §5.4 SuperMicro X10-DRG-Q comparison machine:
	// 83 W idle without a NIC.
	XeonE52637v4 = CPUModel{
		Sockets:            1,
		CoresPerSocket:     4,
		IdleWatts:          83,
		FirstCoreJumpWatts: 25,
		ExtraCoreWatts:     3,
		SaturationUtil:     0.05,
		LoadSlopeWatts:     40,
	}

	// XeonE52660v4Dual is the §7 ASUS ESC4000-G3S: two 14-core sockets.
	// Anchors: 56 W idle, 91 W one busy core, 134 W full load, 86 W at
	// 10% single-core load, 1-2 W per additional core.
	XeonE52660v4Dual = CPUModel{
		Sockets:            2,
		CoresPerSocket:     14,
		IdleWatts:          56,
		FirstCoreJumpWatts: 35,
		ExtraCoreWatts:     1.6,
		SaturationUtil:     0.0514,
		LoadSlopeWatts:     0,
	}
)
