package fleet

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"incod/internal/cluster"
	"incod/internal/trafficgen"
)

const (
	// replaySegments is each member's profile resolution: the day's
	// trace replayed as 12 ramps.
	replaySegments = 12
	// replaySockets is the client sockets each member's generator sends
	// from.
	replaySockets = 2
	// replayKeys is the key space a member's traffic draws on. The DNS
	// demo zone holds 16 names; querying beyond it would turn the replay
	// into an NXDOMAIN benchmark.
	replayKeys, replayDNSNames = 1000, 16
)

// WorkerResult is one member's finished load run: the generator's
// counts of what it sent and how that was answered. Latencies are left
// out: the generators, the controller and the members share one runtime,
// so they would measure neither the clients nor the servers.
type WorkerResult struct {
	Member string `json:"member"`
	// Sent and Answered count requests and their replies; Bad counts
	// replies that failed to decode, the fleet's wrong-answer metric.
	Sent     uint64 `json:"sent"`
	Answered uint64 `json:"answered"`
	Bad      uint64 `json:"bad"`
	// Outstanding counts requests nothing answered by the end.
	Outstanding int `json:"outstanding"`
	// Err records why the generator did not start or stopped early.
	Err string `json:"error,omitempty"`
}

// traceProfile converts a demand trace (modeled kpps over its native
// duration) into segments ramps replayed over wall, offered at
// modeled/rateScale req/s, each endpoint rounded to a whole rate and each
// duration to the millisecond.
func traceProfile(t cluster.LoadTrace, wall time.Duration, segments int, rateScale float64) trafficgen.Profile {
	pts := t.Sample(segments + 1)
	if len(pts) == 0 {
		return nil
	}
	if len(pts) == 1 {
		pts = append(pts, pts[0])
	}
	step := wall / time.Duration(len(pts)-1)
	if step <= 0 {
		step = time.Second
	}
	p := make(trafficgen.Profile, len(pts)-1)
	for i := range p {
		p[i] = trafficgen.Segment{Kind: "ramp", From: math.RoundToEven(pts[i] * 1000 / rateScale),
			To: math.RoundToEven(pts[i+1] * 1000 / rateScale), Dur: step.Round(time.Millisecond)}
	}
	return p
}

// ReplayConfig parameterizes a fleet-wide trace replay.
type ReplayConfig struct {
	// Wall is the compressed wall-clock duration each member's trace is
	// replayed over.
	Wall time.Duration
	// RateScale divides modeled trace kpps down to offered loopback
	// rates (the controller's RateScale multiplies back).
	RateScale float64
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

// Replay drives every member's trace at it concurrently, one trafficgen
// generator per member in this process, and collects every report. When
// ctx ends the generators stop at their next tick. The error is non-nil
// if any generator failed; results are returned regardless, in member
// order.
func Replay(ctx context.Context, cfg ReplayConfig, members []Member, traces map[string]cluster.LoadTrace) ([]WorkerResult, error) {
	if cfg.RateScale <= 0 {
		cfg.RateScale = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	results := make([]WorkerResult, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = replayMember(ctx, cfg, m, traces[m.Name], logf)
		}()
	}
	wg.Wait()
	var firstErr error
	for _, r := range results {
		if r.Err != "" && firstErr == nil {
			firstErr = fmt.Errorf("fleet: worker %s: %s", r.Member, r.Err)
		}
	}
	return results, firstErr
}

func replayMember(ctx context.Context, cfg ReplayConfig, m Member, trace cluster.LoadTrace,
	logf func(string, ...any)) WorkerResult {
	res := WorkerResult{Member: m.Name}
	if len(trace) == 0 {
		res.Err = "no trace"
		return res
	}
	keys := uint64(replayKeys)
	if m.Kind == "dns" {
		keys = replayDNSNames
	}
	// A member's kind is its traffic's trafficgen protocol.
	d, c, err := trafficgen.Open(m.Kind, m.Data, replaySockets, keys)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer d.Close()
	defer context.AfterFunc(ctx, d.Close)()

	profile := traceProfile(trace, cfg.Wall, replaySegments, cfg.RateScale)
	logf("fleet: replaying %s on %s (%d ramps over %v)", m.Name, m.Data, len(profile), cfg.Wall)
	var rep trafficgen.Report
	if err := d.Run(c, profile, &rep, func(string, ...any) {}); err != nil {
		res.Err = err.Error()
	}
	res.Sent, res.Answered, res.Bad, res.Outstanding = rep.Sent, rep.Answered, rep.Bad, rep.Outstanding
	return res
}
