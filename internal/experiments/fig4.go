package experiments

import (
	"incod/internal/fpga"
)

func init() {
	register("fig4", "LaKe power-saving techniques (Figure 4)", fig4)
}

// serverNoCardsWatts is Figure 4's red server bar. §5.1: "the power
// consumption of an idle server (without a NetFPGA card) was roughly
// equivalent to the power consumption of a stand alone NetFPGA card
// programmed with LaKe but also idle" (~28 W). This differs from the 39 W
// idle figure of §4, which includes the NIC and a different measurement
// configuration.
const serverNoCardsWatts = 27.0

// Figure4Bars computes the nine standalone-board configurations of
// Figure 4 in the paper's x-axis order.
func Figure4Bars() []struct {
	Label string
	Watts float64
	Ref   bool // red bars: reference NIC and server
} {
	standalone := func(mutate func(*fpga.Board), cfg fpga.Config, load float64) float64 {
		b := fpga.NewBoard(cfg)
		b.SetStandalone(true)
		if mutate != nil {
			mutate(b)
		}
		return b.CardWatts(load)
	}
	noMem := fpga.LaKeDesign
	noMem.UsesDRAM, noMem.UsesSRAM = false, false

	return []struct {
		Label string
		Watts float64
		Ref   bool
	}{
		{"Ref. NIC", standalone(nil, fpga.ReferenceNIC, 0), true},
		{"1 PE & no mem", standalone(func(b *fpga.Board) { b.SetActivePEs(1) }, noMem, 0), false},
		{"No mem", standalone(nil, noMem, 0), false},
		{"Max load & no mem", standalone(nil, noMem, 1), false},
		{"Reset mem & clk gating", standalone(func(b *fpga.Board) {
			b.SetMemoryReset(true)
			b.SetClockGating(true)
		}, fpga.LaKeDesign, 0), false},
		{"Reset mem", standalone(func(b *fpga.Board) { b.SetMemoryReset(true) }, fpga.LaKeDesign, 0), false},
		{"Server no cards", serverNoCardsWatts, true},
		{"Clk gating", standalone(func(b *fpga.Board) { b.SetClockGating(true) }, fpga.LaKeDesign, 0), false},
		{"LaKe", standalone(nil, fpga.LaKeDesign, 0), false},
	}
}

func fig4() *Table {
	t := &Table{
		ID:      "fig4",
		Title:   "Figure 4: effects of LaKe design trade-offs on power",
		Columns: []string{"configuration", "watts", "bar"},
	}
	bars := Figure4Bars()
	for _, b := range bars {
		kind := "lake"
		if b.Ref {
			kind = "reference"
		}
		t.AddRow(b.Label, b.Watts, kind)
	}
	// Shape checks from §5.1/§5.2.
	byLabel := map[string]float64{}
	for _, b := range bars {
		byLabel[b.Label] = b.Watts
	}
	t.AddNote("clock gating saves %.2f W (paper: <1 W)", byLabel["LaKe"]-byLabel["Clk gating"])
	t.AddNote("external memories cost %.1f W (paper: >=10 W)", byLabel["LaKe"]-byLabel["No mem"])
	t.AddNote("memory reset saves %.1f W = 40%% of memory power (paper: 40%%)", byLabel["LaKe"]-byLabel["Reset mem"])
	t.AddNote("LaKe logic over reference NIC: %.1f W (paper: 2.2 W)", byLabel["No mem"]-byLabel["Ref. NIC"])
	t.AddNote("standalone LaKe %.1f W ~ idle server without cards %.1f W (§5.1)", byLabel["LaKe"], byLabel["Server no cards"])
	return t
}
