package experiments

import (
	"incod/internal/asic"
	"incod/internal/power"
)

func init() {
	register("asic", "Tofino normalized power (§6)", asicTable)
	register("opswatt", "Messages-per-watt ladder (§6)", opsWatt)
}

func asicTable() *Table {
	t := &Table{
		ID:      "asic",
		Title:   "§6: ASIC (Tofino 32x40G snake) normalized power vs load",
		Columns: []string{"load[%]", "l2fwd", "l2fwd+p4xos", "diag.p4", "p4xos-overhead[%]"},
	}
	base, p4, diag := asic.NewTofino(), asic.NewTofino(), asic.NewTofino()
	p4.Load(asic.P4xosL2Fwd)
	diag.Load(asic.DiagP4)
	for load := 0.0; load <= 1.0001; load += 0.1 {
		over := (p4.Power(load)/base.Power(load) - 1) * 100
		t.AddRow(load*100, base.Normalized(load), p4.Normalized(load), diag.Normalized(load), over)
	}
	t.AddNote("P4xos overhead at full load: %.1f%% (paper: <=2%%)", (p4.Power(1)/base.Power(1)-1)*100)
	t.AddNote("diag.p4 overhead at full load: %.1f%% (paper: 4.8%%)", (diag.Power(1)/base.Power(1)-1)*100)
	t.AddNote("min-max span: %.1f%% (paper: <20%%)", (p4.Power(1)/p4.Power(0)-1)*100)
	msgs := p4.MsgThroughputKpps(0.10)
	t.AddNote("at 10%% utilization: %.0f kpps = %.0fx the 178 kpps server (paper: x1000)", msgs, msgs/178)
	serverDyn := power.LibpaxosAcceptor.Power(178) - power.LibpaxosAcceptor.Power(0)
	t.AddNote("ASIC dynamic at 10%%: %.1f W vs server dynamic %.1f W at ~180 kpps (paper: ~1/3)",
		p4.DynamicWatts(0.10), serverDyn)
	return t
}

func opsWatt() *Table {
	t := &Table{
		ID:      "opswatt",
		Title:   "§6: consensus messages per watt across substrates",
		Columns: []string{"substrate", "peak[kpps]", "watts", "msgs/W"},
	}
	tof := asic.NewTofino()
	tof.Load(asic.P4xosL2Fwd)
	// Each substrate at its peak rate, over the watts attributable to it.
	row := func(name string, kpps, watts float64) { t.AddRow(name, kpps, watts, kpps*1000/watts) }
	row("libpaxos (dynamic)", 178, power.LibpaxosAcceptor.Power(178)-power.LibpaxosAcceptor.Power(0))
	row("P4xos NetFPGA (standalone)", 10000, p4xosStandalone(10000))
	row("P4xos Tofino (total)", tof.MsgThroughputKpps(1), tof.Power(1))
	t.AddNote("paper ladder: software 10K's, FPGA 100K's, ASIC 10M's msgs/W")
	return t
}
