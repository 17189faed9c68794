package experiments

import (
	"fmt"
	"time"

	"incod/internal/core"
	"incod/internal/fpga"
	"incod/internal/power"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

func init() {
	register("infra", "Host-platform and FPGA-generation sensitivity (§5.4)", infraTable)
	register("strategies", "Idle strategies for the parked accelerator (§9.2)", strategiesTable)
}

// infraTable reproduces §5.4: the accelerator's absolute cost is fixed,
// but its relative cost depends on the host — and on the FPGA generation.
func infraTable() *Table {
	t := &Table{
		ID:      "infra",
		Title:   "§5.4: the same card in different hosts / FPGA generations",
		Columns: []string{"configuration", "idle[W]", "with-LaKe-idle[W]", "card-share[%]"},
	}
	card := fpga.NewBoard(fpga.LaKeDesign).CardWatts(0)
	hosts := []struct {
		name string
		idle float64
	}{
		{"Intel i7-6700K (base setup)", 37.5},
		{"Xeon E5-2637 v4 / X10-DRG-Q", power.XeonE52637v4.IdleWatts},
		{"low-power ARM-class node", 15},
	}
	for _, h := range hosts {
		total := h.idle + card
		t.AddRow(h.name, h.idle, total, card/total*100)
	}
	// FPGA generation: UltraScale+ at x2.4 perf/W (§5.4).
	scaled := fpga.NewBoard(fpga.LaKeDesign.Scaled(fpga.UltraScalePlusFactor))
	t.AddRow("LaKe logic on UltraScale+ (x2.4 perf/W)", "-", fmt.Sprintf("card %.1f W", scaled.CardWatts(0)), "-")
	t.AddNote("§5.4: the Xeon idles at 83 W — 20 W more than LaKe at full load on the base setup")
	t.AddNote("§5.4: on low-power hosts the FPGA's relative cost is higher; the power difference of installing the card is constant")
	return t
}

// strategiesTable measures the §9.2 idle-strategy trade-off live: parked
// power vs reactivation cost (entries to transfer again, halted packets).
func strategiesTable() *Table {
	t := &Table{
		ID:      "strategies",
		Title:   "§9.2: idle strategies for the parked LaKe card",
		Columns: []string{"strategy", "parked-card[W]", "reactivation-warmed", "halted-packets"},
	}
	for _, s := range []simhost.IdleStrategy{simhost.ParkReset, simhost.KeepWarm, simhost.PartialReconfig} {
		watts, warmed, halted := measureStrategy(s)
		t.AddRow(s.String(), watts, warmed, halted)
	}
	t.AddNote("the paper picks park-reset: 'the best of both performance and power efficiency worlds' (§9.2)")
	t.AddNote("keep-warm shifts instantly but forfeits the memory-reset saving; partial reconfiguration saves the most but halts traffic for ~%v", simhost.ReconfigHalt)
	t.AddNote("reactivation-warmed is the tier's warmed_entries on the shift back: a shift is the real stage, flip, barrier, warm inside one simulated instant, so its cost shows as entries moved, not as queries missed while a cache refills")
	return t
}

// measureStrategy lights a LaKe card, parks it with the strategy, then
// reactivates under load and reports the costs.
func measureStrategy(s simhost.IdleStrategy) (parked float64, warmed, halted uint64) {
	sim := simnet.New(92)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	m := simhost.LaKe()
	m.Strategy = s
	lake := simhost.NewKVS(net, "lake", m)
	lake.Preload(200, 64)
	mustShift(lake.Service, core.Network)
	sim.RunFor(simhost.ReconfigHalt) // past the first programming, if any
	client := simhost.NewClient(net, "client", "lake", cyclingKeys(200))

	// Serve, park, measure, reactivate under load.
	client.Start(50)
	sim.RunFor(100 * time.Millisecond)
	mustShift(lake.Service, core.Host)
	sim.RunFor(100 * time.Millisecond)
	parked = lake.CardWatts()
	_, preHalted := lake.Dropped()
	mustShift(lake.Service, core.Network)
	warmed = lake.Tier.Counters().Get("warmed_entries")
	sim.RunFor(200 * time.Millisecond)
	client.Stop()
	sim.RunFor(10 * time.Millisecond)
	_, nowHalted := lake.Dropped()
	return parked, warmed, nowHalted - preHalted
}
