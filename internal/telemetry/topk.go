package telemetry

import (
	"bytes"
	"sync/atomic"
)

// HotKey is one entry of a hot-key snapshot: a key and the (possibly
// sampled) access count attributed to it.
type HotKey struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	// Err is the space-saving overestimation bound: the true count is
	// in [Count-Err, Count].
	Err uint64 `json:"err,omitempty"`
}

// TopK is a space-saving top-K frequency sketch sized for a read hot
// path: Observe is guarded by a CAS try-lock and simply drops the
// sample when another observer holds it, so a caller never blocks and
// never spins. The sketch is intentionally lossy — it is fed with
// sampled GET hits and only the ranking matters to its consumers
// (nictier warm-up, /v1/dataplane telemetry).
type TopK struct {
	busy   atomic.Uint32 // CAS try-lock; 1 while an Observe or Snapshot holds the slots
	k      int
	keys   [][]byte // per-slot buffers, reused by the key that replaces another
	hashes []uint64
	counts []uint64
	errs   []uint64
	n      int // slots in use
}

// NewTopK returns a sketch tracking the k most frequent keys. k <= 0
// returns nil, the disabled sketch.
func NewTopK(k int) *TopK {
	if k <= 0 {
		return nil
	}
	return &TopK{
		k:      k,
		keys:   make([][]byte, k),
		hashes: make([]uint64, k),
		counts: make([]uint64, k),
		errs:   make([]uint64, k),
	}
}

// Observe records one access of key. hash must be the caller's hash of
// key (it is used to avoid key compares on the scan). The sketch copies
// a key only when it enters, into the buffer of the slot it takes, so a
// caller's key is never retained. Contended calls are dropped.
func (t *TopK) Observe(hash uint64, key string) { t.ObserveBytes(hash, []byte(key)) }

// ObserveBytes is Observe for a byte-slice key: the lock-free GET path
// samples the request's own key bytes, with no allocation once every
// slot's buffer has held a key as long.
func (t *TopK) ObserveBytes(hash uint64, key []byte) {
	if t == nil || !t.busy.CompareAndSwap(0, 1) {
		return
	}
	// Space-saving: bump an existing slot, fill a free slot, or replace
	// the current minimum and inherit its count as the error bound.
	min, minAt := ^uint64(0), -1
	for i := 0; i < t.n; i++ {
		if t.hashes[i] == hash && bytes.Equal(t.keys[i], key) {
			t.counts[i]++
			t.busy.Store(0)
			return
		}
		if t.counts[i] < min {
			min, minAt = t.counts[i], i
		}
	}
	if t.n < t.k {
		minAt, min = t.n, 0
		t.n++
	}
	t.keys[minAt] = append(t.keys[minAt][:0], key...)
	t.hashes[minAt], t.errs[minAt], t.counts[minAt] = hash, min, min+1
	t.busy.Store(0)
}

// Snapshot returns a copy of the sketch's current entries, unsorted.
// Returns nil if the sketch is contended at the instant of the call.
func (t *TopK) Snapshot() []HotKey {
	if t == nil || !t.busy.CompareAndSwap(0, 1) {
		return nil
	}
	out := make([]HotKey, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = HotKey{Key: string(t.keys[i]), Count: t.counts[i], Err: t.errs[i]}
	}
	t.busy.Store(0)
	return out
}
