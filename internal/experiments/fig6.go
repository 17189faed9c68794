package experiments

import (
	"cmp"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/trafficgen"
)

func init() {
	register("fig6", "KVS software<->hardware transition timeline (Figure 6)", fig6)
}

// Fig6Result carries the timeline for tests and the CLI.
type Fig6Result struct {
	Table       *Table
	Transitions []core.Transition
	// LatencyImprovement is software-phase median / hardware-phase median.
	LatencyImprovement float64
}

// Fig6Params varies the Figure 6 run for examples/kvs_ondemand; the zero
// value is the figure.
type Fig6Params struct {
	Seed        int64         // simulator seed (0: 1234)
	Keys        int           // ETC key pool, all preloaded (0: 5000)
	ChainerFrom time.Duration // when ChainerMN starts (0: 5 s)
	ChainerTo   time.Duration // and stops (0: 20 s)
	Length      time.Duration // run length (0: 30 s)
}

// RunFig6 reproduces the §9.2 experiment: an ETC-distribution memcached
// client at ~16 kpps, ChainerMN as a second workload raising host power,
// and the host controller (3 s sustained condition) shifting the KVS to
// LaKe and back as ChainerMN stops.
func RunFig6(p Fig6Params) *Fig6Result {
	p.Seed = cmp.Or(p.Seed, 1234)
	p.Keys = cmp.Or(p.Keys, 5000)
	p.ChainerFrom = cmp.Or(p.ChainerFrom, 5*time.Second)
	p.ChainerTo = cmp.Or(p.ChainerTo, 20*time.Second)
	p.Length = cmp.Or(p.Length, 30*time.Second)

	sim := simnet.New(p.Seed)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	lake := simhost.NewKVS(net, "lake", simhost.LaKe()) // start of the day: everything in software
	// ETC key popularity over a modest pool (cache-warmable).
	etc := trafficgen.NewETC(sim.Rand(), uint64(p.Keys))
	lake.Preload(p.Keys, 64)
	client := simhost.NewClient(net, "client", "lake", &trafficgen.KVS{Key: etc.Keys.Next})

	// ChainerMN (deep learning) as background load, drawing CPU and power
	// on the same host while it runs.
	chainerOn := false
	sim.Schedule(p.ChainerFrom, func() { chainerOn = true })
	sim.Schedule(p.ChainerTo, func() { chainerOn = false })
	chainerPower := func() float64 {
		if chainerOn {
			return 45 // additional package watts while training
		}
		return 0
	}
	chainerCPU := func() float64 {
		if chainerOn {
			return 0.8
		}
		return 0
	}

	svc := lake.Service
	// The §9.1 host controller with the paper's 3 s trigger. Its generic
	// rate-based return rule gives way to the §9.2 one: the experiment
	// shifts back "as ChainerMN stops".
	pol := core.ReturnWhen(core.NewPowerPolicy(core.HostControllerConfig{
		ToNetworkPowerWatts: 70,
		ToNetworkCPUUtil:    0.5,
		ToNetworkSustain:    3 * time.Second,
	}), func() bool { return !chainerOn }, 3*time.Second, "background workload stopped")
	orch, _ := simhost.Orchestrate(sim, 100*time.Millisecond, daemon.ServiceConfig{
		Service: svc,
		Policy:  pol,
		Model: func(float64) (watts, cpu float64) {
			return lake.HostWatts() + chainerPower(), lake.HostUtilization() + chainerCPU()
		},
	}, lake.Observed)

	t := &Table{
		ID:      "fig6",
		Title:   "Figure 6: transitioning KVS between software and hardware",
		Columns: []string{"t[ms]", "throughput[kpps]", "latency[us]", "power[W]", "placement"},
	}

	client.Start(16) // ~16 kpps as in Figure 6
	const interval = 500 * time.Millisecond
	var (
		lastRecv uint64
		samples  []float64
		swLat    time.Duration
		hwLat    time.Duration
	)
	for now := time.Duration(0); now < p.Length; now += interval {
		sim.RunFor(interval)
		recv := client.Counters.Get("recv")
		kppsNow := float64(recv-lastRecv) / interval.Seconds() / 1000
		lastRecv = recv
		med := client.Latency.Median()
		client.Latency.Reset()
		if svc.Placement() == core.Host && med > 0 {
			swLat = med
		}
		if svc.Placement() == core.Network && med > 0 && lake.Tier.HitRatio() > 0.9 {
			hwLat = med
		}
		samples = append(samples, kppsNow)
		t.AddRow(sim.Now().Seconds()*1000, kppsNow, float64(med)/1000, // µs
			lake.PowerWatts(sim.Now())+chainerPower(), svc.Placement().String())
	}
	client.Stop()

	// Worst throughput after warm-up relative to the offered 16 kpps.
	dip := 1.0
	for _, s := range samples[2:] {
		if f := s / 16; f < dip {
			dip = f
		}
	}
	res := &Fig6Result{Table: t, Transitions: orch.Transitions()}
	if hwLat > 0 {
		res.LatencyImprovement = float64(swLat) / float64(hwLat)
	}
	for _, tr := range res.Transitions {
		t.AddNote("transition: %s", tr)
	}
	t.AddNote("worst-interval throughput = %.0f%% of offered (paper: 'no effect on KVS throughput')", dip*100)
	t.AddNote("median latency improved %.1fx after warm-up (paper: 'ten-fold within tens of microseconds')", res.LatencyImprovement)
	return res
}

func fig6() *Table { return RunFig6(Fig6Params{}).Table }
