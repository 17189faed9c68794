package telemetry

import (
	"fmt"
	"math"
	"time"
)

// Histogram records durations in logarithmically spaced buckets and answers
// percentile queries, in the style of an HDR histogram. It replaces the
// paper's DAG-card latency capture: the evaluation reports medians and 99th
// percentiles (§5.3, §3.3), which this type reproduces.
type Histogram struct {
	// buckets[i] counts samples in [lower(i), lower(i+1)).
	buckets []uint64
	count   uint64
	sum     time.Duration
	max     time.Duration
}

// bucketsPerDecade controls resolution: ~2.5% relative error.
const bucketsPerDecade = 90

// NewHistogram returns an empty histogram covering 1ns to ~1000s.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]uint64, 12*bucketsPerDecade)}
}

func bucketIndex(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	idx := int(math.Log10(float64(d)) * bucketsPerDecade)
	if idx < 0 {
		idx = 0
	}
	return idx
}

func bucketValue(idx int) time.Duration {
	// Midpoint of the bucket in log space.
	return time.Duration(math.Pow(10, (float64(idx)+0.5)/bucketsPerDecade))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	idx := bucketIndex(d)
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Mean returns the arithmetic mean of all observations.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) with the histogram's bucket
// resolution. Quantile(0.5) is the median.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return bucketValue(i)
		}
	}
	return h.max
}

// Median is shorthand for Quantile(0.5).
func (h *Histogram) Median() time.Duration { return h.Quantile(0.5) }

// P99 is shorthand for Quantile(0.99).
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count, h.sum, h.max = 0, 0, 0
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Median(), h.P99(), h.Max())
}
