package kvs

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"incod/internal/memcache"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// This file is the lock-free partition behind ShardedStore: an open-
// addressing hash table whose readers never take a lock. Writers are
// serialized by a per-partition mutex (the dataplane's shard affinity
// means there is normally exactly one writer per partition anyway, and
// the mutex keeps the store correct for arbitrary callers); readers use
// a per-slot sequence counter to detect torn reads and retry. See doc.go
// for the memory-model notes.

// Slot lifecycle states. A tombstone keeps its key/value pointers so a
// concurrent reader that loaded the slot mid-transition never chases a
// nil pointer; probes walk past tombstones, and a rehash purges them.
const (
	slotEmpty uint32 = iota // never written; terminates reader probes
	slotLive
	slotTomb // deleted or evicted; probes continue past it
)

// valWords is a value payload packed into little-endian 64-bit words
// (zero-padded tail) so readers can copy it with word-sized atomic
// loads. Mixed-version copies are possible and are caught by the seq
// validation, not by the loads themselves.
type valWords []atomic.Uint64

// slot is one table entry. Every field shared with lock-free readers is
// atomic: the race detector then sees only synchronized accesses, and
// the per-slot seq (even = stable, odd = write in progress or slot
// retired by a rehash) is what guards against *mixed-version* reads.
type slot struct {
	seq         atomic.Uint64
	state       atomic.Uint32
	ref         atomic.Uint32 // CLOCK reference bit; set on GET hit when bounded
	hash        atomic.Uint64
	key         atomic.Pointer[string]
	val         atomic.Pointer[valWords]
	vlen        atomic.Uint32
	flags       atomic.Uint32
	expires     atomic.Int64
	expObserved atomic.Uint32 // 0->1 CAS when a reader first sees this entry expired
}

// lfTable is one immutable-shape generation of a partition's table. The
// slots themselves mutate (in place, under the writer mutex); growth or
// tombstone purges build a new generation and poison the old one.
type lfTable struct {
	mask  uint64
	slots []slot
}

// partStats are the per-partition counters, padded so partitions pinned
// to different cores never false-share. Readers bump gets/hits/
// expirations; the writer bumps sets/deletes/evictions.
type partStats struct {
	_           [64]byte
	gets        atomic.Uint64
	hits        atomic.Uint64
	sets        atomic.Uint64
	deletes     atomic.Uint64
	evictions   atomic.Uint64
	expirations atomic.Uint64
	_           [64]byte
}

// partition is one shard of a ShardedStore: single-writer (enforced by
// mu), any number of lock-free readers.
type partition struct {
	mu    sync.Mutex // serializes writers; the read path never touches it
	table atomic.Pointer[lfTable]

	maxEntries int // entry bound, 0 = unbounded; writer-owned
	live       int // live entries; writer-owned
	tombs      int // tombstoned slots awaiting a purge; writer-owned
	hand       int // CLOCK hand; writer-owned

	sampler atomic.Pointer[telemetry.TopK] // hot-key sketch, nil unless enabled
	stats   partStats

	// Writer-owned and cold, so kept off the lines readers share above.
	maxSlots int // table size a bounded partition stops growing at, else 0
	rehashes int // table generations built so far
}

const minTableSlots = 64

// newPartition starts at the minimum table whatever the bound: memory
// follows contents. A bounded partition grows no further than 2*bound
// (load 1/2 at the bound), so churn at the bound never grows it.
func newPartition(maxEntries int) *partition {
	p := &partition{maxEntries: maxEntries}
	if maxEntries > 0 {
		p.maxSlots = minTableSlots
		for p.maxSlots < 2*maxEntries {
			p.maxSlots <<= 1
		}
	}
	p.table.Store(&lfTable{mask: minTableSlots - 1, slots: make([]slot, minTableSlots)})
	return p
}

// eqBytesString compares a byte-slice key to a stored string key without
// allocating. Explicit loop: the read path must not depend on the
// compiler recognizing a string-conversion comparison idiom.
func eqBytesString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// storeWords packs b into w (little-endian, zero-padded tail) with
// atomic stores, so a concurrent reader's word loads are synchronized;
// the writer's surrounding seq bracket is what makes the copy appear
// whole.
func storeWords(w valWords, b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		w[i>>3].Store(binary.LittleEndian.Uint64(b[i:]))
	}
	if i < len(b) {
		var tmp [8]byte
		copy(tmp[:], b[i:])
		w[i>>3].Store(binary.LittleEndian.Uint64(tmp[:]))
	}
}

// appendWords appends the first vlen bytes of w to dst.
func appendWords(dst []byte, w *valWords, vlen int) []byte {
	base := len(dst)
	var tmp [8]byte
	for i := 0; i < (vlen+7)>>3; i++ {
		binary.LittleEndian.PutUint64(tmp[:], (*w)[i].Load())
		dst = append(dst, tmp[:]...)
	}
	return dst[:base+vlen]
}

// read resolves key (with precomputed hash) at virtual time now without
// acquiring any lock. On a hit it appends either the raw value bytes or,
// with encode set, the full memcached "VALUE ... END" reply to dst.
//
// Reader protocol, per probe step (see doc.go for why each unvalidated
// continue is linearizable):
//   - odd seq        -> a writer is mid-update or the table generation
//     was retired; reload the table pointer and restart the probe
//   - empty slot     -> validate seq, then miss
//   - tombstone      -> continue probing, no validation needed
//   - hash/key mismatch -> continue probing, no validation needed
//   - matching live  -> copy header+value, then validate seq; a moved
//     seq means the copy may be torn, so drop it and restart
func (p *partition) read(dst []byte, key []byte, hash uint64, now simnet.Time, encode bool) (out []byte, flags uint32, expires int64, ok bool) {
	p.stats.gets.Add(1)
	out = dst
	mark := len(dst)
	spins := 0
retry:
	for {
		spins++
		if spins&63 == 0 {
			runtime.Gosched()
		}
		out = out[:mark]
		t := p.table.Load()
		idx := hash & t.mask
		for range t.slots {
			s := &t.slots[idx]
			seq := s.seq.Load()
			if seq&1 != 0 {
				continue retry
			}
			switch s.state.Load() {
			case slotEmpty:
				if s.seq.Load() != seq {
					continue retry
				}
				return out, 0, 0, false
			case slotLive:
				if s.hash.Load() != hash {
					break // different key; keep probing
				}
				kp := s.key.Load()
				if kp == nil {
					continue retry // mid-claim; seq will have moved
				}
				if !eqBytesString(key, *kp) {
					break
				}
				exp := s.expires.Load()
				if exp != 0 && int64(now) >= exp {
					if s.seq.Load() != seq {
						continue retry
					}
					// Readers cannot reap; count the expiration once
					// and leave the entry for Sweep.
					if s.expObserved.CompareAndSwap(0, 1) {
						p.stats.expirations.Add(1)
					}
					return out, 0, 0, false
				}
				fl := s.flags.Load()
				vl := int(s.vlen.Load())
				vp := s.val.Load()
				if (vp == nil && vl > 0) || (vp != nil && (vl+7)>>3 > len(*vp)) {
					continue retry // torn header/value pair
				}
				if encode {
					out = memcache.AppendValueHeader(out, key, fl, vl)
				}
				if vl > 0 {
					out = appendWords(out, vp, vl)
				}
				if encode {
					out = append(out, "\r\nEND\r\n"...)
				}
				if s.seq.Load() != seq {
					continue retry // torn value copy; drop and redo
				}
				h := p.stats.hits.Add(1)
				if p.maxEntries > 0 && s.ref.Load() == 0 {
					s.ref.Store(1) // CLOCK touch; a hot entry's line stays clean
				}
				if sam := p.sampler.Load(); sam != nil && h&hotSampleMask == 0 {
					sam.Observe(hash, *kp)
				}
				return out, fl, exp, true
			case slotTomb:
				// Keep probing; no validation needed.
			}
			idx = (idx + 1) & t.mask
		}
		// Probed the whole table without an empty terminator (all
		// live+tomb): the key is not present.
		return out, 0, 0, false
	}
}

// hotSampleMask samples 1-in-8 GET hits into the hot-key sketch: the
// ranking is preserved (counts scale uniformly) and the hot path only
// pays the sketch scan on every 8th hit.
const hotSampleMask = 7

// findForWrite probes for key under the writer lock: the live slot that
// holds it (expired or not), or else the first reusable slot on its
// probe path (nil when the table is all live and tombstones).
func (t *lfTable) findForWrite(hash uint64, keyB []byte, keyS string, useB bool) (existing, claim *slot) {
	idx := hash & t.mask
	for range t.slots {
		s := &t.slots[idx]
		switch s.state.Load() {
		case slotEmpty:
			if claim == nil {
				claim = s
			}
			return nil, claim
		case slotTomb:
			if claim == nil {
				claim = s
			}
		case slotLive:
			if s.hash.Load() == hash {
				kp := s.key.Load()
				if useB && eqBytesString(keyB, *kp) || !useB && *kp == keyS {
					return s, nil
				}
			}
		}
		idx = (idx + 1) & t.mask
	}
	return nil, claim
}

// overwrite updates a live slot's payload in place. The seq bracket
// (odd while mutating) forces concurrent readers of this slot to retry.
func (p *partition) overwrite(s *slot, e Entry) {
	nw := (len(e.Value) + 7) >> 3
	s.seq.Add(1) // -> odd
	vp := s.val.Load()
	switch {
	case vp == nil || nw > cap(*vp):
		nv := make(valWords, nw)
		storeWords(nv, e.Value)
		s.val.Store(&nv)
	case nw != len(*vp):
		w := (*vp)[:nw]
		storeWords(w, e.Value)
		s.val.Store(&w)
	default:
		// Same word count: repack in place, zero allocations — the
		// steady-state overwrite path.
		storeWords(*vp, e.Value)
	}
	s.vlen.Store(uint32(len(e.Value)))
	s.flags.Store(e.Flags)
	s.expires.Store(e.Expires)
	s.expObserved.Store(0)
	s.seq.Add(1) // -> even, new generation
}

// insertAt claims an empty or tombstoned slot for key. The boxed key is
// shared with the hot-key sketch thereafter. With from set, the value is
// not e.Value but another store's live slot (installAbsent): its packed
// words are copied across as they are.
func (p *partition) insertAt(s *slot, hash uint64, key *string, e Entry, from *slot) {
	wasTomb := s.state.Load() == slotTomb
	vlen := len(e.Value)
	if from != nil {
		vlen = int(from.vlen.Load())
	}
	nw := (vlen + 7) >> 3
	s.seq.Add(1) // -> odd
	s.hash.Store(hash)
	s.key.Store(key)
	var w valWords
	if vp := s.val.Load(); vp == nil || nw > cap(*vp) {
		w = make(valWords, nw)
	} else {
		w = (*vp)[:nw] // a tombstone's retained array is reusable
	}
	if from != nil {
		src := *from.val.Load()
		for i := range w {
			w[i].Store(src[i].Load())
		}
	} else {
		storeWords(w, e.Value)
	}
	s.val.Store(&w)
	s.vlen.Store(uint32(vlen))
	s.flags.Store(e.Flags)
	s.expires.Store(e.Expires)
	s.expObserved.Store(0)
	// Fresh entries start with the reference bit clear: the CLOCK hand
	// grants a second chance only after the first GET touches them.
	s.ref.Store(0)
	s.state.Store(slotLive)
	s.seq.Add(1) // -> even
	if wasTomb {
		p.tombs--
	}
	p.live++
}

// tombstone retires a live slot, keeping its key/value pointers so
// concurrent readers never chase nil (a rehash purges the retained
// memory; retention is bounded by the table size).
func (p *partition) tombstone(s *slot) {
	s.seq.Add(1)
	s.state.Store(slotTomb)
	s.seq.Add(1)
	p.live--
	p.tombs++
}

// evict runs the CLOCK hand: clear reference bits until a live slot
// without one comes up, and tombstone it. Two full sweeps bound the
// walk — with no concurrent readers re-touching entries, the second
// sweep must find a cleared bit.
func (p *partition) evict(t *lfTable) {
	n := len(t.slots)
	for step := 0; step < 2*n; step++ {
		s := &t.slots[p.hand]
		p.hand++
		if p.hand == n {
			p.hand = 0
		}
		if s.state.Load() != slotLive {
			continue
		}
		if s.ref.Load() != 0 {
			s.ref.Store(0) // second chance
			continue
		}
		p.tombstone(s)
		p.stats.evictions.Add(1)
		return
	}
}

func (p *partition) needRehash(t *lfTable) bool {
	return (p.live+p.tombs+1)*8 >= len(t.slots)*7
}

// rehash rebuilds the table (growing, as far as the bound allows, if the
// live count or the caller's want entries warrant it), purging tombstones, then publishes the new generation and poisons
// every old slot. The poison — bumping each retired slot's seq to odd,
// forever — is load-bearing: value arrays alias between generations, so
// any reader still probing the old table must be made to fail seq
// validation before the writer mutates anything through the new one.
func (p *partition) rehash(told *lfTable, want int) {
	size := len(told.slots)
	// Keep live load at or below 1/2. (An unbounded maxSlots is 0.)
	for max(want, p.live)*2 >= size && size != p.maxSlots {
		size <<= 1
	}
	p.rehashes++
	nt := &lfTable{mask: uint64(size - 1), slots: make([]slot, size)}
	for i := range told.slots {
		s := &told.slots[i]
		if s.state.Load() != slotLive {
			continue
		}
		h := s.hash.Load()
		idx := h & nt.mask
		for nt.slots[idx].state.Load() == slotLive {
			idx = (idx + 1) & nt.mask
		}
		d := &nt.slots[idx]
		d.seq.Store(2) // even: stable from the moment of publication
		d.hash.Store(h)
		d.key.Store(s.key.Load())
		d.val.Store(s.val.Load()) // aliases the old generation; see poison
		d.vlen.Store(s.vlen.Load())
		d.flags.Store(s.flags.Load())
		d.expires.Store(s.expires.Load())
		d.expObserved.Store(s.expObserved.Load())
		d.ref.Store(s.ref.Load())
		d.state.Store(slotLive)
	}
	p.tombs = 0
	p.hand = 0
	p.table.Store(nt)
	for i := range told.slots {
		told.slots[i].seq.Add(1) // permanently odd: readers reload the table
	}
}

// setLocked is the insert/overwrite core; the caller holds p.mu and has
// already counted the set.
func (p *partition) setLocked(hash uint64, keyB []byte, keyS string, useB bool, e Entry) {
	existing, claim := p.table.Load().findForWrite(hash, keyB, keyS, useB)
	if existing != nil {
		p.overwrite(existing, e)
		return
	}
	key := keyS // boxed here, past the overwrite return, so only an insert allocates it
	if useB {
		key = string(keyB)
	}
	p.insertAt(p.makeRoom(claim, hash, key), hash, &key, e, nil)
}

// makeRoom readies the partition for one more entry — evict at the
// bound, rebuild a full or tombstone-choked table — and returns the slot
// the absent key goes in: findForWrite's claim, or the rebuilt table's.
func (p *partition) makeRoom(claim *slot, hash uint64, key string) *slot {
	t := p.table.Load()
	if p.maxEntries > 0 && p.live >= p.maxEntries {
		p.evict(t)
	}
	if claim == nil || p.needRehash(t) {
		p.rehash(t, 0)
		_, claim = p.table.Load().findForWrite(hash, nil, key, false)
	}
	return claim
}

func (p *partition) set(hash uint64, keyB []byte, keyS string, useB bool, e Entry) {
	p.mu.Lock()
	p.stats.sets.Add(1)
	p.setLocked(hash, keyB, keyS, useB, e)
	p.mu.Unlock()
}

// reserve grows the table in one step to the shape n entries settle into.
func (p *partition) reserve(n int) {
	p.mu.Lock()
	if t := p.table.Load(); n*2 >= len(t.slots) && len(t.slots) != p.maxSlots {
		p.rehash(t, n)
	}
	p.mu.Unlock()
}

// installAbsent copies src — a live slot of another store, held stable
// by its partition's writer mutex — into this partition unless a live
// entry (expired or not) already holds its key: one probe, one copy of
// the value words, the boxed key shared.
func (p *partition) installAbsent(src *slot) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	hash, key := src.hash.Load(), src.key.Load()
	existing, claim := p.table.Load().findForWrite(hash, nil, *key, false)
	if existing != nil {
		return false
	}
	p.stats.sets.Add(1)
	e := Entry{Flags: src.flags.Load(), Expires: src.expires.Load()}
	p.insertAt(p.makeRoom(claim, hash, *key), hash, key, e, src)
	return true
}

func (p *partition) del(hash uint64, keyB []byte, keyS string, useB bool) bool {
	p.mu.Lock()
	p.stats.deletes.Add(1)
	t := p.table.Load()
	existing, _ := t.findForWrite(hash, keyB, keyS, useB)
	if existing == nil {
		p.mu.Unlock()
		return false
	}
	p.tombstone(existing)
	p.mu.Unlock()
	return true
}

// sweep reaps expired entries, counting each at most once (readers may
// have observed — and counted — an expiry before the sweep reaps it).
func (p *partition) sweep(now simnet.Time) int {
	p.mu.Lock()
	t := p.table.Load()
	n := 0
	for i := range t.slots {
		s := &t.slots[i]
		if s.state.Load() != slotLive {
			continue
		}
		exp := s.expires.Load()
		if exp != 0 && int64(now) >= exp {
			if s.expObserved.CompareAndSwap(0, 1) {
				p.stats.expirations.Add(1)
			}
			p.tombstone(s)
			n++
		}
	}
	p.mu.Unlock()
	return n
}

// fillInto offers every live entry to dst, holding the writer lock for
// the walk so no slot changes under the copy.
func (p *partition) fillInto(dst *ShardedStore) (installed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.table.Load()
	for i := range t.slots {
		s := &t.slots[i]
		if s.state.Load() == slotLive && dst.parts[s.hash.Load()&dst.mask].installAbsent(s) {
			installed++
		}
	}
	return installed
}

func (p *partition) len() int {
	p.mu.Lock()
	n := p.live
	p.mu.Unlock()
	return n
}

func (p *partition) statsSnapshot() StoreStats {
	return StoreStats{
		Gets:        p.stats.gets.Load(),
		Hits:        p.stats.hits.Load(),
		Sets:        p.stats.sets.Load(),
		Deletes:     p.stats.deletes.Load(),
		Evictions:   p.stats.evictions.Load(),
		Expirations: p.stats.expirations.Load(),
	}
}
