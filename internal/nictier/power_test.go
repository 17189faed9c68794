package nictier

import (
	"math"
	"testing"

	"incod/internal/fpga"
	"incod/internal/kvs"
)

// The three cards' in-server draw from the §5 component constants:
// serving at pipeline utilization 0, 0.3 and 1, and parked (module off,
// memories in reset, clocks gated). Anchors: the LaKe card adds ~20 W to
// the server (§4.2), P4xos ~10 W (§4.3), Emu DNS sits at 47.5-48 W total
// over a 39 W server (§4.4).
func TestTierPowerModel(t *testing.T) {
	for _, tc := range []struct {
		design               fpga.Config
		idle, u30, full, off float64
	}{
		{fpga.LaKeDesign, 20, 20.15, 20.5, 14.78},
		{fpga.EmuDNSDesign, 8.5, 8.62, 8.9, 7.6},
		{fpga.P4xosDesign, 10, 10.36, 11.2, 9.1},
	} {
		p := newCardPower(tc.design)
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"idle", p.lit.CardWatts(0), tc.idle},
			{"30%", p.lit.CardWatts(0.3), tc.u30},
			{"full", p.lit.CardWatts(1), tc.full},
			{"parked", p.parked.CardWatts(0), tc.off},
		} {
			if math.Abs(c.got-c.want) > 1e-9 {
				t.Errorf("%s %s: %.4f W, want %.4f", tc.design.Name, c.what, c.got, c.want)
			}
		}
	}

	// A tier reports the parked draw until it is staged, the design's
	// draw from then on, and the parked draw again after Park.
	tier := NewKVS(kvs.NewHandler(kvs.NewShardedStore(2, 0)))
	if w := tier.PowerWatts(); math.Abs(w-14.78) > 1e-9 {
		t.Errorf("unstaged LaKe tier draws %.2f W, want the parked 14.78", w)
	}
	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	if w := tier.PowerWatts(); math.Abs(w-20) > 1e-9 {
		t.Errorf("staged idle LaKe tier draws %.2f W, want 20", w)
	}
	if err := tier.Park(); err != nil {
		t.Fatal(err)
	}
	if w := tier.PowerWatts(); math.Abs(w-14.78) > 1e-9 {
		t.Errorf("parked LaKe tier draws %.2f W, want 14.78", w)
	}
}
