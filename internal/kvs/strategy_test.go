package kvs_test

// The §9.2 idle strategies of the card, through the live tier lifecycle.

import (
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/fpga"
	"incod/internal/kvs"
	"incod/internal/simhost"
)

// strategyRig is a bed parking with strategy s, one key "k" in the store,
// the service on the card and past any programming halt.
func strategyRig(t *testing.T, s simhost.IdleStrategy) *bed {
	t.Helper()
	m := simhost.LaKe()
	m.Strategy = s
	b := rig(31, m)
	b.Store.Set("k", kvs.Entry{Value: []byte("v")})
	b.app.Key = func() string { return "k" }
	b.shift(t, core.Network)
	b.sim.RunFor(2 * simhost.ReconfigHalt)
	return b
}

// §9.2 ablation: idle power ordering partial-reconfig < park-reset <
// keep-warm.
func TestIdleStrategyPowerOrdering(t *testing.T) {
	idle := func(s simhost.IdleStrategy) float64 {
		b := strategyRig(t, s)
		b.shift(t, core.Host)
		b.sim.RunFor(100 * time.Millisecond) // past any reconfig halt
		return b.CardWatts()
	}
	reconf := idle(simhost.PartialReconfig)
	park := idle(simhost.ParkReset)
	warm := idle(simhost.KeepWarm)
	if !(reconf < park && park < warm) {
		t.Errorf("idle power ordering wrong: reconfig %v, park %v, warm %v", reconf, park, warm)
	}
	// The reconfigured card is a plain NIC.
	if reconf != fpga.NICBaseCardWatts {
		t.Errorf("partial-reconfig idle = %v W, want %v (reference NIC)", reconf, fpga.NICBaseCardWatts)
	}
}

// Keep-warm keeps the table across parking: nothing to transfer again,
// and the card serves from the first request after the shift back.
func TestKeepWarmPreservesCache(t *testing.T) {
	b := strategyRig(t, simhost.KeepWarm)
	b.drive(20, 50*time.Millisecond)
	if b.fast() == 0 {
		t.Fatal("the card did not warm")
	}
	b.shift(t, core.Host)
	b.shift(t, core.Network)
	if got := b.Tier.Counters().Get("warmed_entries"); got != 0 {
		t.Errorf("keep-warm reactivation transferred %d entries, want 0", got)
	}
	_, host := b.served()
	b.drive(20, 50*time.Millisecond)
	if _, now := b.served(); now != host {
		t.Errorf("%d requests reached the host after keep-warm reactivation, want 0", now-host)
	}
}

func TestPartialReconfigHaltsTraffic(t *testing.T) {
	b := strategyRig(t, simhost.PartialReconfig)
	b.client.Start(50)
	b.sim.RunFor(50 * time.Millisecond)
	b.shift(t, core.Host) // reprogram to NIC: halt starts
	b.sim.RunFor(simhost.ReconfigHalt / 2)
	if _, halted := b.Dropped(); halted == 0 {
		t.Error("traffic during the halt must be dropped")
	}
	b.sim.RunFor(simhost.ReconfigHalt)
	// Software now serves through the NIC bitstream, and nothing is lost.
	_, halted := b.Dropped()
	before := b.client.Counters.Get("recv")
	b.sim.RunFor(50 * time.Millisecond)
	b.client.Stop()
	b.sim.RunFor(10 * time.Millisecond)
	if b.client.Counters.Get("recv") == before {
		t.Error("no service after reconfiguration completed")
	}
	if _, now := b.Dropped(); now != halted {
		t.Errorf("%d datagrams lost after the halt should have ended", now-halted)
	}
	if b.CardWatts() != fpga.NICBaseCardWatts {
		t.Errorf("card draws %v W, want the reference NIC's %v", b.CardWatts(), fpga.NICBaseCardWatts)
	}
}

func TestPartialReconfigReactivation(t *testing.T) {
	b := strategyRig(t, simhost.PartialReconfig)
	b.shift(t, core.Host)
	b.sim.RunFor(100 * time.Millisecond)
	b.shift(t, core.Network)
	if lit := fpga.NewBoard(fpga.LaKeDesign).CardWatts(0); b.CardWatts() != lit {
		t.Fatalf("card draws %v W, want the LaKe bitstream's %v: activation should reload it", b.CardWatts(), lit)
	}
	if !b.halts() {
		t.Fatal("reactivation also halts traffic")
	}
	b.sim.RunFor(100 * time.Millisecond)
	b.drive(20, 50*time.Millisecond)
	if fast, _ := b.served(); fast == 0 {
		t.Error("the card should serve after reconfigured activation")
	}
}

func TestStrategyString(t *testing.T) {
	if simhost.ParkReset.String() != "park-reset" || simhost.KeepWarm.String() != "keep-warm" ||
		simhost.PartialReconfig.String() != "partial-reconfig" {
		t.Error("IdleStrategy names wrong")
	}
}

// Shifting to the network a service that is already there must not halt
// a PartialReconfig card again.
func TestActivateIdempotentNoHalt(t *testing.T) {
	b := strategyRig(t, simhost.PartialReconfig) // already running the LaKe bitstream
	b.shift(t, core.Network)
	if b.halts() {
		t.Error("activating an already-loaded design must not halt traffic")
	}
}

// halts reports whether the card drops the requests of a short burst:
// whether a reconfiguration halt is in progress.
func (b *bed) halts() bool {
	_, before := b.Dropped()
	b.client.Start(50)
	b.sim.RunFor(time.Millisecond)
	b.client.Stop()
	_, after := b.Dropped()
	return after != before
}
