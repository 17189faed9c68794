package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"incod/internal/asic"
	"incod/internal/cluster"
	"incod/internal/power"
)

func init() {
	register("dynamo", "Dynamo power-variance analysis (§9.3)", dynamoTable)
	register("google", "Google cluster-trace offload mining (§9.3)", googleTable)
	register("tor", "Top-of-rack switch on-demand analysis (§9.4)", torTable)
}

func dynamoTable() *Table {
	t := &Table{
		ID:      "dynamo",
		Title:   "§9.3: rack power variation (synthetic Dynamo-style traces)",
		Columns: []string{"workload", "window", "median[%]", "p99[%]", "paper-median[%]", "paper-p99[%]", "on-demand-safe"},
	}
	rng := rand.New(rand.NewSource(93))
	pub := cluster.DynamoPublished()
	cases := []struct {
		kind  cluster.WorkloadKind
		w     time.Duration
		pubID string
	}{
		{cluster.RackMixed, 3 * time.Second, "rack-3s"},
		{cluster.RackMixed, 30 * time.Second, "rack-30s"},
		{cluster.Caching, 60 * time.Second, "caching-60s"},
		{cluster.WebServer, 60 * time.Second, "web-60s"},
	}
	for _, c := range cases {
		trace := cluster.GenerateTrace(rng, c.kind, 800, 3600)
		v := trace.Variation(c.w)
		p := pub[c.pubID]
		t.AddRow(c.kind.String(), c.w.String(), v.MedianPct, v.P99Pct, p.MedianPct, p.P99Pct,
			cluster.SafeForOnDemand(v, 35))
	}
	t.AddNote("§9.3 rule: low variance over the scheduling period -> safe for in-network computing")
	return t
}

func googleTable() *Table {
	t := &Table{
		ID:      "google",
		Title:   "§9.3: Google-trace offload-candidate mining (synthetic trace)",
		Columns: []string{"metric", "value", "paper"},
	}
	rng := rand.New(rand.NewSource(94))
	const nodes = 1000
	horizon := 24 * time.Hour
	tasks := cluster.GenerateGoogleTrace(rng, 1_200_000, horizon)
	stats := cluster.Stats(tasks)
	cands := cluster.OffloadCandidates(tasks)
	density := cluster.CandidateDensity(tasks, nodes, horizon)

	t.AddRow("tasks", stats.Tasks, "-")
	t.AddRow("long jobs (>2h) fraction", stats.LongJobFraction, "~5% of jobs")
	t.AddRow("long jobs resource share", stats.LongJobResourceFrac, "~90% of utilization")
	t.AddRow("offload candidates (>=5min, >=10% core)", len(cands), "1.39M unique tasks")
	t.AddRow("candidate cores per node per 5min", density, "7.7")
	saving := cluster.LastJobSaving(power.XeonE52660v4Dual, 0.5, 10)
	t.AddRow("last-job offload saving [W]", saving, "-")
	t.AddNote("high per-node density diminishes the saving when many jobs share a server (§9.3)")
	t.AddNote("the 'load diminishes' model: offloading the last job idles the host and saves the first-core jump")
	return t
}

func torTable() *Table {
	t := &Table{
		ID:      "tor",
		Title:   "§9.4: ToR switch on-demand",
		Columns: []string{"metric", "value"},
	}
	curve := power.MemcachedMellanox
	tip := cluster.SwitchTippingKpps(curve, 2000)
	t.AddRow("switch-vs-server tipping point [kpps]", tip)
	t.AddRow("switch dynamic power for 1 Mpps x 1500 B [W]", torPortWatts(1000, 1500))
	for _, hit := range []float64{0.5, 0.9, 0.99} {
		split, hostOnly := cluster.CacheSplitPower(curve, 2400, hit)
		t.AddRow(fmtReasonLocal("rack dynamic power, %.0f%% switch hits [W]", hit*100), split)
		if hit == 0.5 {
			t.AddRow("rack dynamic power, host-only [W]", hostOnly)
		}
	}
	swPkts, srvPkts := cluster.RequestHalving(1e6)
	t.AddRow("switch packets per 1M req/s (in-switch)", swPkts)
	t.AddRow("switch packets per 1M req/s (server-served)", srvPkts)
	t.AddNote("§9.4: tipping point 'when R is almost zero'; a million queries draw <1 W of switch power")
	t.AddNote("§10: serving in the switch halves the application packets through it")
	return t
}

func torPortWatts(kpps float64, bytes int) float64 {
	return asic.PortDynamicWatts(kpps*1000, bytes)
}

func fmtReasonLocal(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
