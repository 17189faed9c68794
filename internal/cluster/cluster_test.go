package cluster

import (
	"math/rand"
	"testing"
	"time"

	"incod/internal/power"
)

func TestVariationOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trace := GenerateTrace(rng, RackMixed, 1000, 3600)
	v3 := trace.Variation(3 * time.Second)
	v30 := trace.Variation(30 * time.Second)
	// §9.3: variance grows with window (12.8% p99 over 3s, 26.6% over 30s),
	// and medians sit well below the tails.
	if v30.P99Pct <= v3.P99Pct {
		t.Errorf("p99 should grow with window: 3s=%v, 30s=%v", v3.P99Pct, v30.P99Pct)
	}
	if v3.MedianPct >= v3.P99Pct || v30.MedianPct >= v30.P99Pct {
		t.Error("median should sit below p99")
	}
	// Rack-level medians are small ("median power variation less than 5%").
	if v3.MedianPct > 8 {
		t.Errorf("3s median = %v%%, want small", v3.MedianPct)
	}
}

func TestWorkloadVolatilityOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	caching := GenerateTrace(rng, Caching, 500, 3600).Variation(60 * time.Second)
	web := GenerateTrace(rng, WebServer, 500, 3600).Variation(60 * time.Second)
	// §9.3: web (median 37.2%) is far more volatile than caching (9.2%).
	if web.MedianPct <= caching.MedianPct {
		t.Errorf("web median %v%% should exceed caching %v%%", web.MedianPct, caching.MedianPct)
	}
	if web.P99Pct <= caching.P99Pct {
		t.Errorf("web p99 %v%% should exceed caching %v%%", web.P99Pct, caching.P99Pct)
	}
	// The §9.3 rule: caching is a safe on-demand target, web is risky.
	if !SafeForOnDemand(caching, 35) {
		t.Error("caching should be safe for on-demand")
	}
	if SafeForOnDemand(web, 35) {
		t.Error("web workload should be flagged as risky")
	}
}

func TestTraceBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trace := GenerateTrace(rng, WebServer, 400, 1000)
	if len(trace) != 1000 {
		t.Fatalf("trace length %d", len(trace))
	}
	for i, v := range trace {
		if v < 400*0.3 || v > 400*3 {
			t.Fatalf("sample %d = %v out of sane bounds", i, v)
		}
	}
	if (PowerTrace{}).Variation(time.Second).P99Pct != 0 {
		t.Error("empty trace should yield zero stats")
	}
	if WorkloadKind(0).String() != "rack" || Caching.String() != "caching" || WebServer.String() != "web" {
		t.Error("WorkloadKind names wrong")
	}
}

func TestGoogleTraceMix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tasks := GenerateGoogleTrace(rng, 50000, 24*time.Hour)
	s := Stats(tasks)
	// §9.3: ~5% of jobs are long (>2h) and take ~90% of resources.
	if s.LongJobFraction < 0.03 || s.LongJobFraction > 0.08 {
		t.Errorf("long-job fraction = %v, want ~0.05", s.LongJobFraction)
	}
	if s.LongJobResourceFrac < 0.80 {
		t.Errorf("long-job resource share = %v, want ~0.9", s.LongJobResourceFrac)
	}
}

func TestOffloadCandidates(t *testing.T) {
	tasks := []Task{
		{Duration: 10 * time.Minute, CPUCores: 0.5}, // candidate
		{Duration: 2 * time.Minute, CPUCores: 0.5},  // too short
		{Duration: time.Hour, CPUCores: 0.05},       // too light
		{Duration: 5 * time.Minute, CPUCores: 0.1},  // boundary: candidate
	}
	got := OffloadCandidates(tasks)
	if len(got) != 2 {
		t.Errorf("candidates = %d, want 2", len(got))
	}
}

func TestCandidateDensity(t *testing.T) {
	// One task using 2 cores for the whole horizon on a 1-node cluster:
	// density = 2.
	tasks := []Task{{Start: 0, Duration: time.Hour, CPUCores: 2}}
	d := CandidateDensity(tasks, 1, time.Hour)
	if d < 1.9 || d > 2.1 {
		t.Errorf("density = %v, want ~2", d)
	}
	if CandidateDensity(tasks, 0, time.Hour) != 0 {
		t.Error("zero nodes should yield 0")
	}
	// A realistic trace lands in the high single digits per node (§9.3
	// reports 7.7), diminishing the per-node saving.
	rng := rand.New(rand.NewSource(5))
	big := GenerateGoogleTrace(rng, 120000, 24*time.Hour)
	density := CandidateDensity(big, 100, 24*time.Hour)
	if density < 2 || density > 20 {
		t.Errorf("trace density = %v per node, want high single digits", density)
	}
}

func TestLastJobSaving(t *testing.T) {
	// Offloading a lone 0.5-core job from the Xeon saves the first-core
	// jump minus the ~10 W card.
	saving := LastJobSaving(power.XeonE52660v4Dual, 0.5, 10)
	if saving < 15 {
		t.Errorf("last-job saving = %v W, want > 15 (first-core jump dominates)", saving)
	}
	// With many other jobs running the saving would shrink; the analysis
	// only models the lone-job case the paper proposes.
}

func TestSwitchTippingNearZero(t *testing.T) {
	curve := power.MemcachedMellanox
	tip := SwitchTippingKpps(curve, 2000)
	// §9.4: "PdN(R) will equal PdS(R) when R is almost zero".
	if tip < 0 || tip > 10 {
		t.Errorf("switch tipping point = %v kpps, want ~0", tip)
	}
}

func TestCacheSplitPower(t *testing.T) {
	curve := power.MemcachedMellanox
	split, hostOnly := CacheSplitPower(curve, 2400, 0.9)
	if split >= hostOnly {
		t.Errorf("90%% hit split (%v W) should beat host-only (%v W)", split, hostOnly)
	}
	// Zero hit ratio: no switch benefit beyond the (tiny) port power.
	split0, host0 := CacheSplitPower(curve, 2400, 0)
	if split0 < host0-1e-9 {
		t.Errorf("0%% hits shouldn't beat host-only: %v vs %v", split0, host0)
	}
	// Clamping.
	if s, _ := CacheSplitPower(curve, 2400, 2); s <= 0 {
		t.Error("hit ratio should clamp to 1")
	}
}

func TestRequestHalving(t *testing.T) {
	sw, srv := RequestHalving(1000)
	if sw != 1000 || srv != 2000 {
		t.Errorf("halving = %v, %v", sw, srv)
	}
}
