package telemetry

// The sim-time instruments in this package (RateMeter, Histogram) are
// single-threaded by contract: the discrete-event simulator that drives
// them never runs two events at once. The live daemons' sharded
// dataplane does, so AtomicRateMeter restates the rate meter over
// atomics and carries no virtual clock. Counters come in one form only:
// AtomicCounters counts for both worlds.

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
	mu    sync.RWMutex
	names []string
	vals  map[string]*atomic.Uint64
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
		c.names = append(c.names, name)
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

// Names returns counter names in first-use order.
func (c *AtomicCounters) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.names...)
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

// AtomicRateMeter is the wall-clock, concurrent counterpart of RateMeter:
// a sliding-window event-rate estimate over fixed-width buckets, safe for
// any number of concurrent Add callers with no locks on the hot path.
//
// Each window slot packs a bucket sequence tag (high 24 bits) and a count
// (low 40 bits) into one uint64, so rotating into a new bucket and
// counting are a single CAS — stale slots from a previous rotation are
// simply ignored by Rate.
type AtomicRateMeter struct {
	bucket time.Duration
	epoch  time.Time
	slots  []atomic.Uint64
	total  atomic.Uint64
}

const (
	rateCountBits = 40
	rateCountMask = uint64(1)<<rateCountBits - 1
	rateTagMask   = uint64(1)<<24 - 1
)

// NewAtomicRateMeter returns a meter averaging over n buckets of width
// bucket (window = n*bucket), starting now.
func NewAtomicRateMeter(bucket time.Duration, n int) *AtomicRateMeter {
	if n < 1 {
		n = 1
	}
	if bucket <= 0 {
		bucket = time.Millisecond
	}
	return &AtomicRateMeter{
		bucket: bucket,
		epoch:  time.Now(),
		slots:  make([]atomic.Uint64, n),
	}
}

// Window returns the averaging period.
func (m *AtomicRateMeter) Window() time.Duration {
	return m.bucket * time.Duration(len(m.slots))
}

// Add records n events now.
func (m *AtomicRateMeter) Add(n uint64) {
	m.total.Add(n)
	seq := uint64(time.Since(m.epoch) / m.bucket)
	s := &m.slots[seq%uint64(len(m.slots))]
	tag := (seq & rateTagMask) << rateCountBits
	for {
		cur := s.Load()
		var next uint64
		if cur&^rateCountMask == tag {
			next = cur + n
			if next&^rateCountMask != tag { // saturate instead of corrupting the tag
				next = tag | rateCountMask
			}
		} else {
			next = tag | n&rateCountMask
		}
		if s.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Rate returns the average events/second over the window ending now.
// Before a full window has elapsed it averages over the elapsed time, so
// early readings are not diluted by empty history.
func (m *AtomicRateMeter) Rate() float64 {
	elapsed := time.Since(m.epoch)
	if elapsed <= 0 {
		return 0
	}
	seq := uint64(elapsed / m.bucket)
	n := uint64(len(m.slots))
	var sum uint64
	for k := uint64(0); k < n && k <= seq; k++ {
		q := seq - k
		cur := m.slots[q%n].Load()
		if cur>>rateCountBits == q&rateTagMask {
			sum += cur & rateCountMask
		}
	}
	window := m.Window()
	if elapsed < window {
		return float64(sum) / elapsed.Seconds()
	}
	return float64(sum) / window.Seconds()
}

// Total returns the lifetime event count. It is monotonic and cheap, so
// it doubles as the request counter the daemon orchestrator samples.
func (m *AtomicRateMeter) Total() uint64 { return m.total.Load() }
