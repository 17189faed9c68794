package kvs

import (
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"incod/internal/dataplane"
	"incod/internal/memcache"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// Entry is a stored value with its memcached metadata.
type Entry struct {
	Flags   uint32
	Value   []byte
	Expires int64 // virtual nanoseconds; 0 means no expiry
}

// SequentialKey returns the i'th generated key, "key-<i>": the name every
// preload stores and every load generator asks for.
func SequentialKey(i int) string { return "key-" + strconv.Itoa(i) }

// ShardedStore is the memcached-semantics store: N shared-nothing
// partitions with key-hash fan-out. Reads are lock-free — a per-slot
// sequence counter detects torn reads and the reader retries — so GET
// hits acquire no mutex at all; writes are serialized per partition by a
// writer mutex, whichever engine shard they arrive on. Eviction is CLOCK
// second-chance: GET hits set a per-entry reference bit with a plain
// atomic store instead of splicing an LRU list under a lock. Shard count
// is rounded up to a power of two and fixed for the store's life, which
// makes key->shard assignment deterministic. A store may carry a mirror
// (SetMirror), which receives every Set and Delete inside the writer's
// critical section. See doc.go for the memory model.
type ShardedStore struct {
	parts  []*partition
	mask   uint64
	mirror atomic.Pointer[ShardedStore]
}

// DefaultMaxEntries is the bound of a store made with maxEntries <= 0:
// every store is bounded, because an expired entry is freed only by a
// write to its key or by eviction.
const DefaultMaxEntries = 1 << 20

// NewShardedStore returns a store with at least shards partitions (0
// means GOMAXPROCS) bounded to maxEntries total (<= 0 selects
// DefaultMaxEntries; the bound is split evenly across partitions, so
// per-partition CLOCK approximates global second-chance under a hashed
// key distribution).
func NewShardedStore(shards, maxEntries int) *ShardedStore {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	st := &ShardedStore{parts: make([]*partition, n), mask: uint64(n - 1)}
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	perShard := (maxEntries + n - 1) / n
	for i := range st.parts {
		st.parts[i] = newPartition(perShard, &st.mirror)
	}
	return st
}

// SetMirror makes m receive every later SetBytes and DeleteBytes on this
// store, applied inside the host partition's writer critical section
// (nil disarms). The lock order is this store's partition, then m's: the
// order FillFrom takes with this store as its source, so m stays a
// faithful copy while a warm of m from this store runs. The offload
// tier arms its table as the mirror while it is staged, so the last
// write to any key lands in both stores under one lock. Evictions are
// not mirrored; m bounds and expires its own entries.
func (st *ShardedStore) SetMirror(m *ShardedStore) { st.mirror.Store(m) }

// Shards returns the partition count.
func (st *ShardedStore) Shards() int { return len(st.parts) }

// EnableHotKeys attaches a k-slot space-saving hot-key sketch to every
// partition, fed with sampled GET hits from then on. k <= 0 disables
// sampling (the default).
func (st *ShardedStore) EnableHotKeys(k int) {
	for _, p := range st.parts {
		p.sampler.Store(telemetry.NewTopK(k))
	}
}

// HotKeys merges every partition's hot-key sketch and returns up to max
// entries, hottest first. Counts are sampled (1 in 8 GET hits), so only
// the ranking is meaningful. Returns nil when sampling is disabled.
func (st *ShardedStore) HotKeys(max int) []telemetry.HotKey {
	var all []telemetry.HotKey
	for _, p := range st.parts {
		if sam := p.sampler.Load(); sam != nil {
			all = append(all, sam.Snapshot()...)
		}
	}
	// Keys never repeat across partitions (a key hashes to exactly one),
	// so a sort-and-truncate is a correct merge.
	sort.Slice(all, func(i, j int) bool { return all[i].Count > all[j].Count })
	if max > 0 && len(all) > max {
		all = all[:max]
	}
	return all
}

// Get returns the entry for key if present and unexpired at now, without
// acquiring any lock. The returned Entry.Value is a private copy (the
// lock-free reader copies value bytes out before validating the read),
// so it is stable across later mutations.
func (st *ShardedStore) Get(key []byte, now simnet.Time) (Entry, bool) {
	h := dataplane.HashBytes(key)
	p := st.parts[h&st.mask]
	v, fl, exp, ok := p.read(nil, key, h, now, false)
	if !ok {
		return Entry{}, false
	}
	return Entry{Flags: fl, Value: v, Expires: exp}, true
}

// AppendGetHit resolves key at now and, on a hit, appends the memcached
// "VALUE ... END" reply to out — the zero-alloc, zero-lock single-GET
// serving path. The value bytes are copied onto the reply and the read
// validated afterwards, so a torn copy is dropped and retried rather
// than served.
func (st *ShardedStore) AppendGetHit(out []byte, key []byte, now simnet.Time) ([]byte, bool) {
	h := dataplane.HashBytes(key)
	p := st.parts[h&st.mask]
	out, _, _, ok := p.read(out, key, h, now, true)
	return out, ok
}

// GetString is Get for a string key (the allocating convenience form —
// the serving path uses AppendGetHit).
func (st *ShardedStore) GetString(key string, now simnet.Time) (Entry, bool) {
	return st.Get([]byte(key), now)
}

// Set stores key, evicting within the key's partition if bounded. The
// value bytes are copied in; the caller keeps ownership of e.Value.
func (st *ShardedStore) Set(key string, e Entry) {
	st.SetBytes([]byte(key), e)
}

// SetBytes stores key with zero steady-state allocation: a new key's
// record comes from its partition's arena (a freed record of its size
// class, else a chunk's unused words), and an overwrite that keeps the
// class repacks the record in place, under the partition's writer mutex.
// e.Value is copied in, so the caller's buffer — typically a pooled
// receive buffer — is free for reuse on return. A key longer than 255
// bytes or a value of 16 MiB or more panics (memcached refuses both).
func (st *ShardedStore) SetBytes(key []byte, e Entry) {
	h := dataplane.HashBytes(key)
	st.parts[h&st.mask].set(h, key, e)
}

// DeleteBytes is Delete for a byte-slice key (no key allocation).
func (st *ShardedStore) DeleteBytes(key []byte) bool {
	h := dataplane.HashBytes(key)
	return st.parts[h&st.mask].del(h, key)
}

// FillFrom installs every live entry of src (another store) that this
// store does not already hold and returns how many — the offload tier's
// warm-up. Each src partition is walked under its writer mutex (src
// keeps serving lock-free reads; writes to that partition wait) and each
// install checks and inserts under this store's partition mutex, so a
// concurrent Set of the same key here — newer by definition — is never
// overwritten by the snapshot. With this store armed as src's mirror,
// holding src's writer mutex is also what orders the walk against src's
// writes: a write either lands before the walk (and is copied) or after
// it (and is mirrored), so a deleted key is never reinstalled. An entry
// costs one probe and one copy of its record's words into a record of
// this store's arena. The walk is in hash order and both stores hash
// alike, so each partition first reserves for exactly the entries it is
// about to receive: growing mid-walk wraps the ordered stream onto an
// already dense prefix and linear probing degenerates.
func (st *ShardedStore) FillFrom(src *ShardedStore) int {
	want := make([]int, len(st.parts))
	for _, p := range src.parts {
		p.countInto(want, st.mask)
	}
	for i, p := range st.parts {
		p.reserve(want[i])
	}
	n := 0
	for _, p := range src.parts {
		n += p.fillInto(st)
	}
	return n
}

// Delete removes key, reporting whether it existed.
func (st *ShardedStore) Delete(key string) bool {
	return st.DeleteBytes([]byte(key))
}

// Apply executes a parsed memcached request at virtual time now, routing
// each key to its partition. Multi-key gets resolve each key
// independently. Exptime is seconds of virtual time from now (relative
// form only; the store has no epoch).
func (st *ShardedStore) Apply(req memcache.Request, now simnet.Time) memcache.Response {
	switch req.Op {
	case memcache.OpGet:
		var items []memcache.Item
		for _, k := range req.AllKeys() {
			if e, ok := st.GetString(k, now); ok {
				items = append(items, memcache.Item{Key: k, Flags: e.Flags, Value: e.Value})
			}
		}
		if len(items) == 0 {
			return memcache.Response{Status: memcache.StatusEnd}
		}
		return memcache.Response{
			Status: memcache.StatusEnd,
			Key:    items[0].Key, Flags: items[0].Flags, Value: items[0].Value,
			Items: items, Hit: true,
		}
	case memcache.OpSet:
		var exp int64
		if req.Exptime > 0 {
			exp = int64(now.Add(time.Duration(req.Exptime) * time.Second))
		}
		st.Set(req.Key, Entry{Flags: req.Flags, Value: req.Value, Expires: exp})
		return memcache.Response{Status: memcache.StatusStored}
	case memcache.OpDelete:
		if st.Delete(req.Key) {
			return memcache.Response{Status: memcache.StatusDeleted}
		}
		return memcache.Response{Status: memcache.StatusNotFound}
	}
	return memcache.Response{Status: memcache.StatusError}
}
