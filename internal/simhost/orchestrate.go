package simhost

import (
	"time"

	"incod/internal/daemon"
	"incod/internal/simnet"
)

// wallTime is the simulator's clock as the time.Time the live code reads:
// 1970 plus virtual time.
func wallTime(sim *simnet.Simulator) time.Time {
	return time.Unix(0, 0).Add(time.Duration(sim.Now()))
}

// Orchestrate runs the daemons' control loop on the virtual clock: a
// daemon.Orchestrator whose clock is sim's, managing cfg.Service under its
// own name, ticked now — the tick that baselines the counter and dates
// the transition log — and then every period until stop is called. total
// is the monotonic request count behind ManagedService.UseCounter (nil
// leaves the service unmetered, for pin-driven stacks). It is the only way
// simulated code reaches an orchestrator, so the loop has one shape on
// both substrates: the driver owns time, the orchestrator exposes Tick.
func Orchestrate(sim *simnet.Simulator, every time.Duration, cfg daemon.ServiceConfig, total func() uint64) (orch *daemon.Orchestrator, stop func()) {
	now := func() time.Time { return wallTime(sim) }
	orch = daemon.NewOrchestrator(every)
	orch.SetClock(now)
	m, err := orch.Register(cfg.Service.Name(), cfg)
	if err != nil {
		panic(err) // a fresh registry and one named service; cannot fail
	}
	if total != nil {
		m.UseCounter(total)
	}
	tick := func() { orch.Tick(now()) }
	tick()
	return orch, sim.Every(every, tick)
}
