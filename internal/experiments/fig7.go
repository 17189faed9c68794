package experiments

import (
	"cmp"
	"time"

	"incod/internal/simhost"
	"incod/internal/simnet"
)

func init() {
	register("fig7", "Paxos leader software<->hardware shift timeline (Figure 7)", fig7)
}

// Fig7Result carries the timeline plus the §9.2 shape anchors.
type Fig7Result struct {
	Table *Table
	// StallMs is the longest zero-throughput interval around the first
	// shift (paper: ~100 ms, "the value of the client timeout").
	StallMs float64
	// SWLatency / HWLatency are steady-phase medians.
	SWLatency, HWLatency time.Duration
	// SWRate / HWRate are steady-phase decision rates (kpps).
	SWRate, HWRate float64
	Gaps           int
}

// Fig7Params varies the Figure 7 run for examples/paxos_leadershift; the
// zero value is the figure.
type Fig7Params struct {
	Seed int64 // simulator seed (0: 77)
}

// RunFig7 reproduces Figure 7: consensus throughput and latency over time
// as the leader shifts from software to hardware (t=1.5s) and back
// (t=3.5s), with a 100 ms client retry timeout.
func RunFig7(p Fig7Params) *Fig7Result {
	sim := simnet.New(cmp.Or(p.Seed, 77))
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	dep := simhost.NewPaxos(net, simhost.PaxosConfig{Clients: 4})
	for _, c := range dep.Clients {
		c.RetryTimeout = 100 * time.Millisecond
	}
	c := dep.Clients[0]

	t := &Table{
		ID:      "fig7",
		Title:   "Figure 7: transitioning the Paxos leader",
		Columns: []string{"t[ms]", "throughput[kpps]", "latency[us]", "leader"},
	}

	shifts := []struct {
		at time.Duration
		to *simhost.PaxosLeader
	}{
		{1500 * time.Millisecond, dep.HWLeader},
		{3500 * time.Millisecond, dep.SWLeader},
	}
	for _, s := range shifts {
		s := s
		sim.Schedule(s.at, func() { dep.ShiftLeader(s.to) })
	}

	// Closed-loop clients, mutilate style: throughput is concurrency/RTT,
	// so the hardware leader's lower latency directly raises throughput,
	// and a shift burns every outstanding request for one full client
	// timeout — the Figure 7 mechanics.
	for _, cl := range dep.Clients {
		cl.StartClosedLoop(1)
	}
	const interval = 50 * time.Millisecond
	var (
		lastDecided uint64
		res         = &Fig7Result{Table: t}
		stallRun    float64
	)
	for now := time.Duration(0); now < 5*time.Second; now += interval {
		sim.RunFor(interval)
		decided := dep.Learner.StatsCounters().Get("decided")
		kpps := float64(decided-lastDecided) / interval.Seconds() / 1000
		lastDecided = decided
		med := c.Latency.Median()
		c.Latency.Reset()
		leader := "software"
		if dep.CurrentLeader() == dep.HWLeader {
			leader = "hardware"
		}
		t.AddRow(sim.Now().Seconds()*1000, kpps, float64(med)/1000, leader)

		// Track the stall around shifts and the steady-phase stats.
		switch {
		case kpps == 0 && sim.Now().Seconds() > 1:
			stallRun += interval.Seconds() * 1000
			if stallRun > res.StallMs {
				res.StallMs = stallRun
			}
		default:
			stallRun = 0
		}
		tms := sim.Now().Seconds() * 1000
		if tms > 1000 && tms <= 1500 && med > 0 {
			res.SWLatency = med
			res.SWRate = kpps
		}
		if tms > 2500 && tms <= 3500 && med > 0 {
			res.HWLatency = med
			res.HWRate = kpps
		}
	}
	for _, cl := range dep.Clients {
		cl.Stop()
	}
	sim.RunFor(time.Second)
	res.Gaps = len(dep.Learner.Gaps())

	t.AddNote("throughput stall around shift: %.0f ms (paper: ~100 ms = client timeout)", res.StallMs)
	if res.HWLatency > 0 {
		t.AddNote("latency %.0fus (sw) -> %.0fus (hw): %.1fx (paper: 'latency is halved')",
			float64(res.SWLatency)/1000, float64(res.HWLatency)/1000,
			float64(res.SWLatency)/float64(res.HWLatency))
	}
	t.AddNote("throughput %.1f kpps (sw) -> %.1f kpps (hw) (paper: 'throughput increases')", res.SWRate, res.HWRate)
	t.AddNote("instance gaps after recovery: %d (no-op fills allowed)", res.Gaps)
	return res
}

func fig7() *Table { return RunFig7(Fig7Params{}).Table }
