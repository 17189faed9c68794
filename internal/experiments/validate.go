package experiments

import (
	"math"
	"time"

	"incod/internal/core"
	"incod/internal/protocol"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

func init() {
	register("validate", "Model-vs-simulation cross check (methodology)", validateTable)
}

// validateTable closes the loop between the calibrated analytic curves
// (which the Figure 3/5 sweeps evaluate) and the live discrete-event
// system: it drives the full KVS simulation at several rates and compares
// the metered wall power against the model the sweeps use. Disagreement
// beyond a watt would mean the figures no longer describe the system that
// the transition experiments (Figures 6/7) actually run.
func validateTable() *Table {
	t := &Table{
		ID:      "validate",
		Title:   "Model vs live simulation: combined KVS power",
		Columns: []string{"kpps", "model[W]", "simulated[W]", "delta[W]"},
	}
	for _, kpps := range []float64{0, 50, 200, 500} {
		model := lakePower(kpps)
		sim := simulateKVSPower(kpps)
		t.AddRow(kpps, model, sim, math.Abs(model-sim))
	}
	t.AddNote("the simulated column meters the simulated card-and-host serving through the live handler and tier with the telemetry.PowerMeter (SHW-3A stand-in)")
	return t
}

// simulateKVSPower runs the live system at the offered rate for 2.5
// virtual seconds (past the 1s rate-meter window) and returns the average
// metered power over the final second.
func simulateKVSPower(kpps float64) float64 {
	sim := simnet.New(1701)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	lake := simhost.NewStack(net, "lake", protocol.KVS, protocol.Options{}, simhost.LaKe())
	lake.Preload(100, 64)
	mustShift(lake.Service, core.Network)
	client := simhost.NewClient(net, "client", "lake", cyclingKeys(100))

	if kpps > 0 {
		client.Start(kpps)
	}
	sim.RunFor(1500 * time.Millisecond) // warm-up past the meter window
	meter := telemetry.NewPowerMeter(sim, lake, 10*time.Millisecond)
	sim.RunFor(time.Second)
	client.Stop()
	return meter.AverageWatts()
}
