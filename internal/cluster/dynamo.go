// Package cluster implements the §9.3/§9.4 data-center analyses: Dynamo
// (Facebook) power-variance statistics, Google-cluster-trace offload
// candidate mining, and the top-of-rack switch on-demand arithmetic.
//
// The real traces are proprietary (Dynamo) or partially normalized
// (Google); per the substitution rule, synthetic generators reproduce the
// published aggregate statistics, and the analysis code computes exactly
// the quantities the paper derives from them.
package cluster

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// PowerTrace is a per-second power sample series for one rack or workload.
type PowerTrace []float64

// WorkloadKind selects a §9.3 workload volatility profile.
type WorkloadKind int

// Workload kinds with the Dynamo-published variance behaviour: caching is
// steady (median 9.2%, p99 26.2% over 60s), web is volatile (median
// 37.2%, p99 62.2%), and a mixed rack sits between (median <5%, p99 12.8%
// over 3s / 26.6% over 30s).
const (
	RackMixed WorkloadKind = iota
	Caching
	WebServer
)

// String names the workload.
func (k WorkloadKind) String() string {
	switch k {
	case Caching:
		return "caching"
	case WebServer:
		return "web"
	}
	return "rack"
}

// volatility parameters per kind: random-walk step (fraction of base) and
// burst probability/magnitude.
func (k WorkloadKind) params() (step, burstP, burstMag float64) {
	switch k {
	case Caching:
		return 0.018, 0.003, 0.24
	case WebServer:
		return 0.075, 0.02, 0.45
	default: // RackMixed
		return 0.015, 0.012, 0.26
	}
}

// GenerateTrace synthesizes seconds of per-second power samples for the
// given workload around baseWatts.
func GenerateTrace(rng *rand.Rand, kind WorkloadKind, basePower float64, seconds int) PowerTrace {
	step, burstP, burstMag := kind.params()
	trace := make(PowerTrace, seconds)
	level := basePower
	for i := range trace {
		level += basePower * step * (rng.Float64()*2 - 1)
		// Mean-revert toward base.
		level += (basePower - level) * 0.08
		v := level
		if rng.Float64() < burstP {
			v += basePower * burstMag * rng.Float64()
		}
		if v < basePower*0.3 {
			v = basePower * 0.3
		}
		trace[i] = v
	}
	return trace
}

// VariationStats holds the §9.3 Dynamo variance metrics for one window
// length: the distribution of (max-min)/mean over sliding windows.
type VariationStats struct {
	MedianPct float64
	P99Pct    float64
}

// Variation computes variation statistics over sliding windows of w
// seconds.
func (t PowerTrace) Variation(w time.Duration) VariationStats {
	n := int(w / time.Second)
	if n < 1 {
		n = 1
	}
	if n > len(t) {
		n = len(t)
	}
	var vars []float64
	for i := 0; i+n <= len(t); i++ {
		lo, hi, sum := math.MaxFloat64, 0.0, 0.0
		for _, v := range t[i : i+n] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			sum += v
		}
		mean := sum / float64(n)
		if mean > 0 {
			vars = append(vars, (hi-lo)/mean*100)
		}
	}
	if len(vars) == 0 {
		return VariationStats{}
	}
	sort.Float64s(vars)
	return VariationStats{
		MedianPct: percentile(vars, 0.50),
		P99Pct:    percentile(vars, 0.99),
	}
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// SafeForOnDemand applies the §9.3 rule: "If there is low power variance
// over the scheduling period, it will be safe to use in-network computing.
// If there is large variance, in-network computing on demand may be
// incorrect or inefficient."
func SafeForOnDemand(v VariationStats, maxP99Pct float64) bool {
	return v.P99Pct <= maxP99Pct
}

// DynamoPublished returns the variance numbers the paper quotes from the
// Dynamo study, for side-by-side reporting in the dynamo table of
// `go run ./cmd/incbench all`.
func DynamoPublished() map[string]VariationStats {
	return map[string]VariationStats{
		"rack-3s":     {MedianPct: 5, P99Pct: 12.8},
		"rack-30s":    {MedianPct: 5, P99Pct: 26.6},
		"caching-60s": {MedianPct: 9.2, P99Pct: 26.2},
		"web-60s":     {MedianPct: 37.2, P99Pct: 62.2},
	}
}
