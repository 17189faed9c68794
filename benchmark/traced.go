package main

import (
	"fmt"
	"path/filepath"
)

// runTraced is the run the per-layer metrics come from. It is separate
// from, and never mixed with, the untraced run: the end-to-end metrics
// are taken with tracing off. Three servers take the same paced replay
// in turn — the real daemon, the twin with decorators off, the twin with
// decorators on — so the twin's distance from the daemon and the
// decorators' own cost are both measured, not assumed; then the
// direct-call timings run with no daemon up.
func (c *runConfig) runTraced(w *workloadSpec) (*result, error) {
	r := &result{Workload: w.Name, Seed: c.seed, Smoke: c.smoke, Trace: true, Correct: true,
		Metrics: map[string]metricValue{}, Diag: map[string]float64{}}
	set := r.set
	ph := c.phases()

	run := func(twin string, echo *live, p phases) (*live, *measured, error) {
		l, err := c.setUp(w, 0, twin)
		if err != nil {
			return nil, nil, err
		}
		m, err := c.measure(l, echo, w, p, nil)
		if err != nil {
			l.abandon()
			return nil, nil, fmt.Errorf("%w (daemon log: %s)", err, l.logPath)
		}
		if err := l.close(false); err != nil {
			return nil, nil, fmt.Errorf("%w (daemon log: %s)", err, l.logPath)
		}
		r.count(m)
		return l, m, nil
	}

	// The three servers share the run's cycles about evenly, each with the
	// echo beside it as in an untraced run, so that what is compared
	// between them is CPU per request over the echo's, not figures taken
	// seconds apart on a host that changes pace in between.
	echo, err := c.startEcho(w)
	if err != nil {
		return nil, fmt.Errorf("echo: %w", err)
	}
	defer echo.abandon()
	part := func(share float64, p phases) phases {
		p.cycles = max(1, int(float64(ph.cycles)*share))
		return p
	}

	// The real daemon: counters, control-plane timings, generator diagnostics.
	l, real, err := run("", echo, part(0.35, ph))
	if err != nil {
		return nil, err
	}
	c.diagnose(r, w, real)
	for _, name := range []string{"loadgen.capacity_kpps", "loadgen.p50_us", "loadgen.server_cpu_us_per_req",
		"echo.capacity_kpps", "echo.p50_us", "echo.cpu_us_per_req",
		"daemon.shift_up_ms", "daemon.shift_down_ms",
		"loadgen.p99_us", "loadgen.p999_us", "loadgen.seg_p99_us", "loadgen.late_p99_us",
		"loadgen.late_max_us", "loadgen.cpu_us_per_req", "loadgen.sat_p50_us", "loadgen.shift_fail_pct",
		"daemon.pin_overhead_ms", "dataplane.reply_gap"} {
		set(name, r.Diag[name])
	}
	set("daemon.boot_ms", l.srv.bootMs)
	set("daemon.pin_post_ms", float64(l.pinWall)/1e6)
	set("daemon.snapshot_us", real.snapshotUs)

	// Counters over the paced phase alone: the difference of the daemon's
	// snapshots either side of it, so preload and warm-up do not dilute them.
	st, st0 := real.afterPaced, real.beforePaced
	ratio := func(num uint64, den ...uint64) float64 {
		var d uint64
		for _, v := range den {
			d += v
		}
		if d == 0 {
			return 0
		}
		return float64(num) / float64(d)
	}
	set("netio.rx_per_read", ratio(st.Received-st0.Received, st.ReadBatches-st0.ReadBatches))
	set("netio.tx_per_write", ratio(st.Replies-st0.Replies, st.WriteBatches-st0.WriteBatches))
	set("netio.tx_segs_per_train", ratio(st.TxTrainSegs-st0.TxTrainSegs, st.TxTrains-st0.TxTrains))
	set("netio.uring_starved", float64(st.UringStarved))
	set("netio.gso_fallbacks", float64(st.GSOTxFallbacks))
	set("dataplane.dropped", float64(st.Dropped))
	set("dataplane.write_errors", float64(st.WriteErrors))
	set("dataplane.read_errors", float64(st.ReadErrors))
	set("dataplane.buffers_in_flight", float64(st.BuffersInFlight))
	h := func(name string) uint64 { return st.Handler[name] - st0.Handler[name] }
	t := func(name string) uint64 { return st.Tier[name] - st0.Tier[name] }
	set("kvs.hit_ratio", ratio(h("hits"), h("hits"), h("misses")))
	set("nictier.hit_ratio", ratio(t("l1_hit")+t("l2_hit")+t("answered")+t("phase1")+t("phase2"),
		t("l1_hit"), t("l2_hit"), t("miss"), t("answered"), t("nxdomain"), t("phase1"), t("phase2"), t("passthrough")))
	set("nictier.kvs_l1_share", ratio(t("l1_hit"), t("l1_hit"), t("l2_hit"), t("miss")))
	set("nictier.kvs_l2_share", ratio(t("l2_hit"), t("l1_hit"), t("l2_hit"), t("miss")))
	set("nictier.offloaded_share", ratio(st.Offloaded-st0.Offloaded, st.Handled-st0.Handled))
	var instances uint64
	if w.Proto == protoPaxos {
		// Every fresh instance voted on stays in the acceptor's table for
		// good; the daemon exports no count, the generator knows it.
		for _, g := range l.gen.conns {
			instances += g.st.fresh
		}
	}
	set("paxos.instances", float64(instances))

	// The twin, bare and then decorated, through the same cycles less
	// the flips. Both are saturated between their paced slices as the
	// daemon is: an engine's paced cost depends on what it did a moment
	// ago (the io_uring rung's wait adapts), and the decorated twin's
	// saturate turns give the receive call's cost when data is waiting.
	twinPh := ph
	twinPh.shift = 0
	_, off, err := run("off", echo, part(0.3, twinPh))
	if err != nil {
		return nil, fmt.Errorf("twin, decorators off: %w", err)
	}
	_, on, err := run("on", echo, part(0.35, twinPh))
	if err != nil {
		return nil, fmt.Errorf("twin, decorators on: %w", err)
	}
	if err := echo.close(false); err != nil {
		return nil, fmt.Errorf("echo: %w", err)
	}
	cpuVsEcho := func(m *measured) float64 {
		return m.overEcho(func(c cycle) float64 { return c.cpuUs }, func(c cycle) float64 { return c.echoCPUUs })
	}
	gap := 100 * (cpuVsEcho(off) - cpuVsEcho(real)) / cpuVsEcho(real)
	set("trace.twin_gap_pct", gap)
	set("trace.overhead_pct", 100*(cpuVsEcho(on)-cpuVsEcho(off))/cpuVsEcho(off))
	r.Diag["trace.real_cpu_vs_echo"] = cpuVsEcho(real)
	r.Diag["trace.twin_off_cpu_vs_echo"] = cpuVsEcho(off)
	r.Diag["trace.twin_on_cpu_vs_echo"] = cpuVsEcho(on)
	r.Diag["trace.real_cpu_us_per_req"] = real.cpuUsPerReq
	r.Diag["trace.twin_off_cpu_us_per_req"] = off.cpuUsPerReq
	r.Diag["trace.twin_on_cpu_us_per_req"] = on.cpuUsPerReq
	if gap > 5 || gap < -5 {
		r.note("twin gap %.1f%% exceeds 5%%: the twin is not measuring the daemon", gap)
	}
	if err := c.layerShares(r, w, on); err != nil {
		return nil, err
	}
	if err := c.microMetrics(r); err != nil {
		return nil, err
	}
	return r, nil
}

// layerShares turns the decorated twin's spans into the per-layer
// figures. The paced epoch gives each layer's share of the twin's CPU
// per request: the engine turn splits into tier, handler, write and the
// engine's own work by span arithmetic, and what the process spent
// outside any turn — the blocking read, the wake-up, the runtime — is
// the read side's. The saturate epoch gives the receive call's cost per
// datagram when data is already waiting.
func (c *runConfig) layerShares(r *result, w *workloadSpec, on *measured) error {
	set := r.set
	tf, err := readTrace(filepath.Join(c.outDir, "trace-"+w.Name+".json"))
	if err != nil {
		return fmt.Errorf("reading the twin's trace: %w", err)
	}
	paced, sat := tf.Epochs[1], tf.Epochs[2]
	if paced == nil || paced.Packets == 0 || sat == nil {
		return fmt.Errorf("the twin's trace has no spans for the measured phases (%d epochs recorded)", len(tf.Epochs))
	}
	if tf.Dropped > 0 {
		r.note("trace ring overflowed: %d spans dropped", tf.Dropped)
	}
	pk := float64(paced.Packets)
	cpuNs := on.cpuUsPerReq * 1e3
	share := func(ns int64) float64 { return 100 * float64(ns) / pk / cpuNs }
	tier, handler, tx, self := share(paced.TierNs), share(paced.HandNs), share(paced.WriteNs), share(paced.SelfNs)
	set("dataplane.turn_ns_pkt", float64(paced.TurnNs)/pk)
	set("dataplane.tier_share", tier)
	set("dataplane.handler_share", handler)
	set("netio.tx_share", tx)
	set("dataplane.self_share", self)
	set("netio.rx_share", 100-tier-handler-tx-self)
	set("netio.rx_ns_pkt", sat.ReadMedNsPkt)
	if paced.WritePk > 0 {
		set("netio.tx_ns_pkt", float64(paced.WriteNs)/float64(paced.WritePk))
	} else {
		set("netio.tx_ns_pkt", 0)
	}
	return nil
}
