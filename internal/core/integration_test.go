package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/protocol"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/trafficgen"
)

// The policies of this package under the one control loop, on the virtual
// clock: daemon.Orchestrator ticked by simhost.Orchestrate, first over
// synthetic monitors, then over the real services — the simulated
// card-and-host serves through the daemons' handlers and offload tiers,
// and a shift is nictier.Service's stage, flip, barrier, warm / drain,
// park.

const tick = 100 * time.Millisecond

// orchestrate places svc under pol, metered by total.
func orchestrate(sim *simnet.Simulator, svc core.Service, pol core.Policy, model daemon.PowerModel, total func() uint64) *daemon.Orchestrator {
	orch, _ := simhost.Orchestrate(sim, tick, daemon.ServiceConfig{Service: svc, Policy: pol, Model: model}, total)
	return orch
}

// offered is a request total growing at *kpps of virtual time.
func offered(sim *simnet.Simulator, kpps *float64) func() uint64 {
	var total uint64
	sim.Every(tick, func() { total += uint64(*kpps * 1000 * tick.Seconds()) })
	return func() uint64 { return total }
}

func TestNetworkControllerShiftsUpAndBack(t *testing.T) {
	sim := simnet.New(1)
	svc := &core.FuncService{ServiceName: "test"}
	rate := 20.0
	orch := orchestrate(sim, svc, core.NewThresholdPolicy(core.NetworkControllerConfig{
		ToNetworkKpps: 100, ToNetworkWindow: time.Second,
		ToHostKpps: 50, ToHostWindow: time.Second,
	}), nil, offered(sim, &rate))
	for _, step := range []struct {
		kpps float64
		d    time.Duration
		want core.Placement
		why  string
	}{
		{20, 3 * time.Second, core.Host, "low rate should stay on host"},
		{200, 2 * time.Second, core.Network, "high sustained rate should shift to network"},
		{80, 5 * time.Second, core.Network, "hysteresis band should not shift back"},
		{10, 2 * time.Second, core.Host, "low sustained rate should shift back to host"},
	} {
		rate = step.kpps
		sim.RunFor(step.d)
		if svc.Placement() != step.want {
			t.Fatal(step.why)
		}
	}
	if status, _ := orch.Status(); status.Shifts != 2 || status.Flaps != 1 {
		t.Errorf("shifts, flaps = %d, %d, want 2, 1; transitions %v", status.Shifts, status.Flaps, orch.Transitions())
	}
}

func TestNetworkControllerSpikeSuppression(t *testing.T) {
	sim := simnet.New(3)
	svc := &core.FuncService{ServiceName: "test"}
	rate := 10.0
	orch := orchestrate(sim, svc, core.NewThresholdPolicy(core.NetworkControllerConfig{
		ToNetworkKpps: 100, ToNetworkWindow: 2 * time.Second,
		ToHostKpps: 50, ToHostWindow: 2 * time.Second,
	}), nil, offered(sim, &rate))
	sim.RunFor(3 * time.Second)
	// A 300ms spike must not trigger: the 2s average stays low.
	rate = 500
	sim.RunFor(300 * time.Millisecond)
	rate = 10
	sim.RunFor(3 * time.Second)
	if svc.Placement() != core.Host || len(orch.Transitions()) != 0 {
		t.Errorf("short spike should be averaged away, got %v", orch.Transitions())
	}
}

// A failing transition task must leave the service in place; the loop
// records the error and retries on a later tick.
func TestControllerRetriesFailedShift(t *testing.T) {
	sim := simnet.New(9)
	fail := true
	svc := &core.FuncService{ServiceName: "flaky", OnShift: func(core.Placement) error {
		if fail {
			return errors.New("leader election lost")
		}
		return nil
	}}
	rate := 500.0
	orch := orchestrate(sim, svc, core.NewThresholdPolicy(core.NetworkControllerConfig{
		ToNetworkKpps: 100, ToNetworkWindow: time.Second,
		ToHostKpps: 50, ToHostWindow: time.Second,
	}), nil, offered(sim, &rate))
	sim.RunFor(3 * time.Second)
	status, _ := orch.Status()
	if svc.Placement() != core.Host || status.LastError == "" || status.Shifts != 0 {
		t.Fatalf("failed shift must stay put and record the error, got %+v", status)
	}
	fail = false
	sim.RunFor(2 * time.Second)
	status, _ = orch.Status()
	if svc.Placement() != core.Network || status.Shifts != 1 || status.LastError != "" {
		t.Fatalf("the loop should retry, succeed and clear the error, got %+v", status)
	}
}

func TestNetworkControllerNeedsFullWindow(t *testing.T) {
	sim := simnet.New(2)
	svc := &core.FuncService{ServiceName: "test"}
	rate := 1000.0
	orchestrate(sim, svc, core.NewThresholdPolicy(core.NetworkControllerConfig{
		ToNetworkKpps: 100, ToNetworkWindow: 2 * time.Second,
		ToHostKpps: 50, ToHostWindow: 2 * time.Second,
	}), nil, offered(sim, &rate))
	sim.RunFor(1 * time.Second)
	if svc.Placement() != core.Host {
		t.Error("must not shift on a partial averaging window")
	}
	sim.RunFor(1500 * time.Millisecond)
	if svc.Placement() != core.Network {
		t.Error("should shift once the window has fully elapsed")
	}
}

func TestHostControllerPowerAndCPU(t *testing.T) {
	sim := simnet.New(4)
	svc := &core.FuncService{ServiceName: "test"}
	powerW, cpu, netRate := 40.0, 0.1, 500.0
	orch := orchestrate(sim, svc, core.NewPowerPolicy(core.HostControllerConfig{
		ToNetworkPowerWatts: 55, ToNetworkCPUUtil: 0.6, ToNetworkSustain: 3 * time.Second,
		ToHostKpps: 50, ToHostSustain: 3 * time.Second,
	}), func(float64) (float64, float64) { return powerW, cpu }, offered(sim, &netRate))

	// High power alone is not sufficient (§9.1: could be another app).
	powerW = 90
	sim.RunFor(5 * time.Second)
	if svc.Placement() != core.Host {
		t.Fatal("power without CPU must not shift")
	}
	// High CPU too: shift after the sustain period.
	cpu = 0.9
	sim.RunFor(2 * time.Second)
	if svc.Placement() != core.Host {
		t.Fatal("must hold for the full 3s sustain")
	}
	sim.RunFor(2 * time.Second)
	if svc.Placement() != core.Network {
		t.Fatal("sustained power+CPU should shift to network")
	}
	// Shift back requires network-side rate info to stay low.
	netRate = 10
	sim.RunFor(4 * time.Second)
	if svc.Placement() != core.Host {
		t.Fatal("low device rate should shift back to host")
	}
	status, _ := orch.Status()
	if status.PowerReads == 0 {
		t.Error("controller should be reading RAPL")
	}
	if status.Shifts != 2 || status.Flaps != 1 {
		t.Errorf("shifts, flaps = %d, %d; transitions %v", status.Shifts, status.Flaps, orch.Transitions())
	}
}

func TestHostControllerSpikeSuppression(t *testing.T) {
	sim := simnet.New(5)
	svc := &core.FuncService{ServiceName: "test"}
	powerW, cpu := 40.0, 0.1
	orch := orchestrate(sim, svc, core.NewPowerPolicy(core.DefaultHostConfig(55, 50)),
		func(float64) (float64, float64) { return powerW, cpu }, nil)
	sim.RunFor(time.Second)
	// 1s spike < 3s sustain: no shift.
	powerW, cpu = 100, 1
	sim.RunFor(time.Second)
	powerW, cpu = 40, 0.1
	sim.RunFor(5 * time.Second)
	if svc.Placement() != core.Host || len(orch.Transitions()) != 0 {
		t.Error("spike shorter than the sustain window must not shift")
	}
}

// Figure 6 flow: host-controlled shift of the KVS from software to
// hardware under sustained load, with no throughput dip and a ~10x hit
// latency improvement.
func TestKVSOnDemandTransition(t *testing.T) {
	sim := simnet.New(21)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	lake := simhost.NewStack(net, "lake", protocol.KVS, protocol.Options{}, simhost.LaKe()) // the "start of the day" state: software
	lake.Preload(200, 1)
	i := 0
	client := simhost.NewClient(net, "client", "lake",
		&trafficgen.KVS{Key: func() string { i++; return fmt.Sprintf("key-%d", i%200) }})

	svc := lake.Service
	if svc.Placement() != core.Host {
		t.Fatal("service should start on the host")
	}
	// Host controller: CPU util and power come from the host model.
	orch := orchestrate(sim, svc, core.NewPowerPolicy(core.HostControllerConfig{
		ToNetworkPowerWatts: 45, ToNetworkCPUUtil: 0.05,
		ToNetworkSustain: 1 * time.Second,
		ToHostKpps:       1, ToHostSustain: 2 * time.Second,
	}), func(float64) (float64, float64) { return lake.HostWatts(), lake.HostUtilization() }, lake.Observed)

	client.Start(100) // 100 kpps, above the KVS crossover
	sim.RunFor(5 * time.Second)
	if svc.Placement() != core.Network {
		t.Fatalf("controller did not offload (transitions: %v)", orch.Transitions())
	}
	// §9.2: "the transition from software to hardware had no effect on
	// KVS throughput" — every request answered.
	client.Stop()
	sim.RunFor(100 * time.Millisecond)
	sent, recv := client.Counters.Get("sent"), client.Counters.Get("recv")
	if recv < sent*99/100 {
		t.Errorf("recv %d of %d; transition should not drop traffic", recv, sent)
	}
	// The warm-up moved the table: hits come from the card, in the
	// ~1.4-1.7µs hardware class.
	if lake.Tier.HitRatio() < 0.5 {
		t.Errorf("hit ratio = %v, tier did not warm", lake.Tier.HitRatio())
	}
	if med := lake.CardLatency.Median(); med > 2*time.Microsecond {
		t.Errorf("hardware hit median = %v, want <2µs (10x better than software)", med)
	}
}

// The network-controlled variant of the same shift.
func TestKVSNetworkControlled(t *testing.T) {
	sim := simnet.New(22)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	lake := simhost.NewStack(net, "lake", protocol.KVS, protocol.Options{}, simhost.LaKe())
	lake.Store.Set("k", kvs.Entry{Value: []byte("v")})
	client := simhost.NewClient(net, "client", "lake", &trafficgen.KVS{Key: func() string { return "k" }})

	svc := lake.Service
	orch := orchestrate(sim, svc, core.NewThresholdPolicy(core.DefaultNetworkConfig(80)), nil, lake.Observed)

	client.Start(150)
	sim.RunFor(4 * time.Second)
	if svc.Placement() != core.Network {
		t.Fatalf("network controller did not offload; rate=%v", lake.RateKpps())
	}
	// Load drops: shift back.
	client.Start(5)
	sim.RunFor(6 * time.Second)
	client.Stop()
	if svc.Placement() != core.Host {
		t.Errorf("network controller did not shift back (transitions: %v)", orch.Transitions())
	}
}

// DNS on demand with zone sync on activation.
func TestDNSOnDemand(t *testing.T) {
	sim := simnet.New(23)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	zone := dns.NewZone()
	zone.PopulateSequential(50)
	emu := simhost.NewStack(net, "emu", protocol.DNS, protocol.Options{Zone: zone}, simhost.EmuDNS())
	i := 0
	client := simhost.NewClient(net, "client", "emu",
		&trafficgen.DNS{Name: func() string { i++; return dns.SequentialName(i % 50) }})

	// A record added while the hardware is parked: the sync-on-shift
	// must pick it up.
	zone.Add("late.example.com", [4]byte{10, 0, 0, 99}, 60)

	svc := emu.Service
	orchestrate(sim, svc, core.NewThresholdPolicy(core.DefaultNetworkConfig(150)), nil, emu.Observed)

	client.Start(300)
	sim.RunFor(4 * time.Second)
	client.Stop()
	if svc.Placement() != core.Network {
		t.Fatalf("DNS not offloaded; rate=%v", emu.RateKpps())
	}
	if got := emu.Tier.Counters().Get("synced_records"); got != 51 {
		t.Errorf("Shift(Network) synced %d records onto the card, want all 51", got)
	}
	before := emu.Stats()
	client.Submit([]byte("late.example.com"))
	sim.RunFor(time.Millisecond)
	if now := emu.Stats(); now.Handled-now.Offloaded != before.Handled-before.Offloaded {
		t.Error("the card must answer the late record itself")
	}
}

// Figure 7 flow: Paxos leader shift with throughput stall bounded by the
// client timeout.
func TestPaxosOnDemandLeaderShift(t *testing.T) {
	sim := simnet.New(24)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	dep := simhost.NewPaxos(net, simhost.PaxosConfig{Clients: 1})
	c := dep.Clients[0]
	c.RetryTimeout = 100 * time.Millisecond
	var svc core.Service = dep
	if svc.Placement() != core.Host {
		t.Fatal("paxos starts in software")
	}

	orch := orchestrate(sim, svc, core.NewThresholdPolicy(core.NetworkControllerConfig{
		ToNetworkKpps: 3, ToNetworkWindow: time.Second,
		ToHostKpps: 1, ToHostWindow: 2 * time.Second,
	}), nil, dep.Requests)

	c.Start(8)
	sim.RunFor(4 * time.Second)
	if svc.Placement() != core.Network {
		t.Fatalf("paxos leader not shifted; transitions: %v", orch.Transitions())
	}
	sim.RunFor(2 * time.Second)
	c.Stop()
	sim.RunFor(time.Second)
	if dep.Learner.DecidedCount() == 0 {
		t.Fatal("no decisions")
	}
	if gaps := dep.Learner.Gaps(); len(gaps) != 0 {
		t.Errorf("gaps after on-demand shift: %v", gaps)
	}
	// The rate input counts client requests at whichever leader they
	// reach, so the shift itself does not look like load falling away: the
	// service must stay in the network under sustained load.
	if svc.Placement() == core.Host {
		t.Error("unexpected shift back while load persisted")
	}
}
