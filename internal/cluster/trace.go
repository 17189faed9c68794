package cluster

import "math/rand"

// This file exports the trace machinery the live fleet controller needs:
// the sim-time demand models (DiurnalLoad, the Dynamo workload kinds)
// resampled and scaled so a day of per-second demand can be replayed as
// real traffic in a compressed wall-clock window.

// Sample resamples the trace to n evenly spaced points (first and last
// samples preserved), the shape a live replayer turns into load-generator
// phases. n <= 0 returns nil; n >= len(t) returns a copy.
func (t LoadTrace) Sample(n int) LoadTrace {
	if n <= 0 || len(t) == 0 {
		return nil
	}
	if n >= len(t) {
		out := make(LoadTrace, len(t))
		copy(out, t)
		return out
	}
	out := make(LoadTrace, n)
	if n == 1 {
		out[0] = t[0]
		return out
	}
	for i := range out {
		idx := i * (len(t) - 1) / (n - 1)
		out[i] = t[idx]
	}
	return out
}

// DynamoLoad synthesizes seconds of per-second demand in kpps: the
// diurnal night/peak envelope modulated by the §9.3 Dynamo workload-kind
// volatility (caching steady, web volatile, mixed rack between). This is
// the load-side counterpart of GenerateTrace's power samples — the same
// random-walk/burst process, applied as a multiplicative factor around
// the envelope — so a fleet replaying it sees realistic second-scale
// variance on top of the day shape.
func DynamoLoad(rng *rand.Rand, kind WorkloadKind, nightKpps, peakKpps float64, seconds int) LoadTrace {
	if seconds <= 0 {
		return nil
	}
	envelope := DiurnalLoad(nightKpps, peakKpps)
	// Volatility factors around 1.0 with the kind's parameters.
	factors := GenerateTrace(rng, kind, 1.0, seconds)
	out := make(LoadTrace, seconds)
	for s := range out {
		e := envelope[(s*len(envelope))/seconds]
		v := e * factors[s]
		if v < 0 {
			v = 0
		}
		out[s] = v
	}
	return out
}
