// Package telemetry provides the measurement instruments used throughout
// the reproduction: a sliding-window rate meter (the averaging window of
// the paper's network controller, §9.1), latency histograms with
// percentile queries (replacing the Endace DAG capture card), and
// integrating power meters (replacing the SHW-3A wall meter).
//
// Counters and the rate meter come in one form for both worlds:
// AtomicCounters and AtomicRateMeter are written by any number of
// dataplane workers at once and are cheap enough for the single-threaded
// simulator, and the meter takes its reader's clock as an argument, so it
// runs on virtual and on wall time alike. Histogram has no twin either,
// but it is single-threaded by contract: its writers are the simulator's
// nodes and the load client, which runs on one goroutine or under one
// lock on either substrate.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// AtomicCounters is a named counter set, safe for use from many
// dataplane workers at once and cheap enough for the single-threaded
// simulator's clients and roles. Hot paths
// should resolve a *atomic.Uint64 once via Handle and increment that
// directly; Inc takes a read lock to find the counter.
type AtomicCounters struct {
	mu   sync.RWMutex
	vals map[string]*atomic.Uint64
}

// NewAtomicCounters returns an empty concurrent counter set.
func NewAtomicCounters() *AtomicCounters {
	return &AtomicCounters{vals: make(map[string]*atomic.Uint64)}
}

// Handle returns the named counter's cell, creating it on first use. The
// returned pointer is stable for the life of the set.
func (c *AtomicCounters) Handle(name string) *atomic.Uint64 {
	c.mu.RLock()
	v := c.vals[name]
	c.mu.RUnlock()
	if v != nil {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v = c.vals[name]; v == nil {
		// Each cell gets its own cache line: pinned shards hammer
		// adjacent handles (hits/misses/sets), and unpadded cells
		// false-share when the allocator packs them together.
		p := new(PaddedUint64)
		v = &p.Uint64
		c.vals[name] = v
	}
	return v
}

// Inc adds n to the named counter, creating it on first use.
func (c *AtomicCounters) Inc(name string, n uint64) { c.Handle(name).Add(n) }

// Get returns the named counter's value (0 if never incremented).
func (c *AtomicCounters) Get(name string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v := c.vals[name]; v != nil {
		return v.Load()
	}
	return 0
}

// Snapshot returns a point-in-time copy of every counter.
func (c *AtomicCounters) Snapshot() map[string]uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]uint64, len(c.vals))
	for name, v := range c.vals {
		out[name] = v.Load()
	}
	return out
}

// String renders "name=value" pairs sorted by name (first-use order is
// racy under concurrent first increments, so sort for stability).
func (c *AtomicCounters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", n, snap[n])
	}
	return s
}

// AtomicRateMeter estimates an event rate over a sliding window of
// fixed-width buckets: the network controller's "average message rate
// over the averaging period" (§9.1). The packet path only counts — Add is
// one atomic add on a total with a cache line to itself, with no clock
// and no loop — and the reader works out the rate from the totals it saw
// at earlier looks, on whatever clock it passes in: the simulator's, or
// the wall time since it started in a daemon.
//
// Buckets are aligned to multiples of the bucket width, the window is the
// current (partial) bucket and the n-1 before it, and a window that has
// not filled yet still divides by its whole length. The total at a
// boundary that passed between two looks is taken from the straight line
// between them, so a reader that polls less often than once a bucket sees
// the traffic between its looks as even, and one that stayed away for
// more than a window gets the mean rate since its previous look. A
// caller that looks on both sides of every add (simhost.Node does) leaves
// nothing to interpolate and gets the bucketed window event for event.
type AtomicRateMeter struct {
	total  PaddedUint64
	bucket time.Duration

	mu    sync.Mutex    // readers only
	marks []uint64      // marks[k%n]: the total when bucket k began
	at    time.Duration // the latest look
	seen  uint64        // and the total it saw
}

// NewAtomicRateMeter returns a meter averaging over n buckets of width
// bucket (window = n*bucket), with its clock at zero.
func NewAtomicRateMeter(bucket time.Duration, n int) *AtomicRateMeter {
	if n < 1 {
		n = 1
	}
	if bucket <= 0 {
		bucket = time.Millisecond
	}
	return &AtomicRateMeter{bucket: bucket, marks: make([]uint64, n)}
}

// Window returns the averaging period.
func (m *AtomicRateMeter) Window() time.Duration {
	return m.bucket * time.Duration(len(m.marks))
}

// Add records n events.
func (m *AtomicRateMeter) Add(n uint64) { m.total.Add(n) }

// Rate returns the average events/second over the window ending at now,
// the time since the meter was made on the caller's clock. A now earlier
// than the latest look reads as of that look.
func (m *AtomicRateMeter) Rate(now time.Duration) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := m.total.Load()
	now = max(now, m.at)
	n := int64(len(m.marks))
	seq, last := int64(now/m.bucket), int64(m.at/m.bucket)
	for k := max(last+1, seq-n+1); k <= seq; k++ {
		along := float64(time.Duration(k)*m.bucket-m.at) / float64(now-m.at)
		m.marks[k%n] = m.seen + uint64(along*float64(total-m.seen))
	}
	m.at, m.seen = now, total
	return float64(total-m.marks[(seq+1)%n]) / m.Window().Seconds()
}

// Total returns the lifetime event count. It is monotonic and cheap, so
// it doubles as the request counter the daemon orchestrator samples.
func (m *AtomicRateMeter) Total() uint64 { return m.total.Load() }
