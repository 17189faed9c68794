package kvs

import (
	"runtime"
	"sync"
	"sync/atomic"

	"incod/internal/memcache"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// This file is the lock-free partition behind ShardedStore: an open-
// addressing hash table whose readers never take a lock. Writers are
// serialized by a per-partition mutex; readers use a per-slot sequence
// counter to detect torn reads and retry. Entries live as records in the
// partition's arena (slab.go). See doc.go for the memory-model notes.

// Slot states, the low two bits of a slot's loc word; above them a live
// slot's loc holds its record's ref.
const (
	slotEmpty uint64 = iota // never written; terminates reader probes
	slotLive
	slotTomb  // deleted or evicted; probes continue past it
	stateMask = 3
)

// Bits of a slot's bits word, set by readers with atomic ORs.
const (
	bitRef     = 1 // CLOCK reference bit; set on GET hit when bounded
	bitExpSeen = 2 // set by whoever first sees the entry expired, who counts it
)

// slot is one table entry: 32 bytes, no pointers. Every field is atomic:
// the race detector then sees only synchronized accesses, and the seq
// (even = stable, odd = write in progress or slot retired by a rehash)
// is what guards against *mixed-version* reads.
type slot struct {
	seq  atomic.Uint64
	hash atomic.Uint64
	loc  atomic.Uint64 // record ref << 2 | state
	bits atomic.Uint64
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

	// Writer-owned and cold, so kept off the lines readers share above
	// (but for the arena's chunk directory, which they load).
	maxSlots int                           // table size a bounded partition stops growing at, else 0
	rehashes int                           // table generations built so far
	mirror   *atomic.Pointer[ShardedStore] // the owning store's SetMirror target, loaded under mu
	slab     arena
}

const minTableSlots = 64

// newPartition starts at the minimum table whatever the bound: memory
// follows contents. A bounded partition grows no further than 2*bound
// (load 1/2 at the bound), so churn at the bound never grows it.
func newPartition(maxEntries int, mirror *atomic.Pointer[ShardedStore]) *partition {
	p := &partition{maxEntries: maxEntries, mirror: mirror}
	if maxEntries > 0 {
		p.maxSlots = minTableSlots
		for p.maxSlots < 2*maxEntries {
			p.maxSlots <<= 1
		}
	}
	p.table.Store(&lfTable{mask: minTableSlots - 1, slots: make([]slot, minTableSlots)})
	return p
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
//   - hash mismatch  -> continue probing, no validation needed
//   - key mismatch   -> validate seq, then continue probing: the record
//     may have been recycled under a slot that still holds this key
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
			switch loc := s.loc.Load(); loc & stateMask {
			case slotEmpty:
				if s.seq.Load() != seq {
					continue retry
				}
				return out, 0, 0, false
			case slotLive:
				if s.hash.Load() != hash {
					break // different key; keep probing
				}
				r := p.slab.rec(loc >> 2)
				h := r[0].Load()
				klen, vlen := lengths(h)
				if recordWords(klen, vlen) > len(r) {
					continue retry // cannot happen at a stable seq; never read past the chunk
				}
				if klen != len(key) || !keyIs(r[recHeader:], key) {
					if s.seq.Load() != seq {
						continue retry // recycled record: the slot may still hold key
					}
					break
				}
				exp := int64(r[1].Load())
				if exp != 0 && int64(now) >= exp {
					if s.seq.Load() != seq {
						continue retry
					}
					// Readers cannot reap; count the expiration once
					// and leave the entry for the writer.
					if s.bits.Or(bitExpSeen)&bitExpSeen == 0 {
						p.stats.expirations.Add(1)
					}
					return out, 0, 0, false
				}
				fl := uint32(h)
				if encode {
					out = memcache.AppendValueHeader(out, key, fl, vlen)
				}
				out = appendWords(out, r[recHeader+(klen+7)>>3:], vlen)
				if encode {
					out = append(out, "\r\nEND\r\n"...)
				}
				if s.seq.Load() != seq {
					continue retry // torn value copy; drop and redo
				}
				hits := p.stats.hits.Add(1)
				if p.maxEntries > 0 && s.bits.Load()&bitRef == 0 {
					s.bits.Or(bitRef) // CLOCK touch; a hot entry's line stays clean
				}
				if sam := p.sampler.Load(); sam != nil && hits&hotSampleMask == 0 {
					sam.ObserveBytes(hash, key)
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

// findForWrite probes t for key under the writer lock: the live slot
// that holds it (expired or not), or else the first reusable slot on its
// probe path (nil when the table is all live and tombstones).
func (p *partition) findForWrite(t *lfTable, hash uint64, key []byte) (existing, claim *slot) {
	idx := hash & t.mask
	for range t.slots {
		s := &t.slots[idx]
		switch loc := s.loc.Load(); loc & stateMask {
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
				r := p.slab.rec(loc >> 2)
				if klen, _ := lengths(r[0].Load()); klen == len(key) && keyIs(r[recHeader:], key) {
					return s, nil
				}
			}
		}
		idx = (idx + 1) & t.mask
	}
	return nil, claim
}

// overwrite updates a live slot's entry. A value that keeps the record's
// class is repacked in place inside the seq bracket (odd while mutating),
// which forces concurrent readers of this slot to retry; otherwise a
// record of the new class is written first, the slot re-pointed inside
// the bracket, and the old record freed.
func (p *partition) overwrite(s *slot, key []byte, e Entry) {
	ref := s.loc.Load() >> 2
	r := p.slab.rec(ref)
	had := recordWords(lengths(r[0].Load()))
	need := recordWords(len(key), len(e.Value))
	if need == had || classOf(need) == classOf(had) {
		// The steady-state overwrite: zero allocations.
		s.seq.Add(1) // -> odd
		r[0].Store(header(e.Flags, len(key), len(e.Value)))
		r[1].Store(uint64(e.Expires))
		storeWords(r[recHeader+(len(key)+7)>>3:], e.Value)
		s.bits.And(^uint64(bitExpSeen))
		s.seq.Add(1) // -> even, new generation
		return
	}
	nref := p.slab.alloc(classOf(need))
	put(p.slab.rec(nref), key, e)
	s.seq.Add(1)
	s.loc.Store(nref<<2 | slotLive)
	s.bits.And(^uint64(bitExpSeen))
	s.seq.Add(1)
	p.slab.release(ref)
}

// insertAt claims an empty or tombstoned slot for the written record
// ref.
func (p *partition) insertAt(s *slot, hash, ref uint64) {
	wasTomb := s.loc.Load()&stateMask == slotTomb
	s.seq.Add(1) // -> odd
	s.hash.Store(hash)
	// Fresh entries start with the reference bit clear: the CLOCK hand
	// grants a second chance only after the first GET touches them.
	s.bits.Store(0)
	s.loc.Store(ref<<2 | slotLive)
	s.seq.Add(1) // -> even
	if wasTomb {
		p.tombs--
	}
	p.live++
}

// tombstone retires a live slot and frees its record.
func (p *partition) tombstone(s *slot) {
	ref := s.loc.Load() >> 2
	s.seq.Add(1)
	s.loc.Store(slotTomb)
	s.seq.Add(1)
	p.slab.release(ref)
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
		if s.loc.Load()&stateMask != slotLive {
			continue
		}
		if s.bits.Load()&bitRef != 0 {
			s.bits.And(^uint64(bitRef)) // second chance
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

// rehash rebuilds the table at size slots, purging tombstones, then
// publishes the new generation and poisons every old slot. The poison —
// bumping each retired slot's seq to odd, forever — is load-bearing:
// records alias between generations, so any reader still probing the old
// table must be made to fail seq validation before the writer mutates or
// recycles a record through the new one.
func (p *partition) rehash(told *lfTable, size int) {
	p.rehashes++
	nt := &lfTable{mask: uint64(size - 1), slots: make([]slot, size)}
	for i := range told.slots {
		s := &told.slots[i]
		loc := s.loc.Load()
		if loc&stateMask != slotLive {
			continue
		}
		h := s.hash.Load()
		idx := h & nt.mask
		for nt.slots[idx].loc.Load() != slotEmpty {
			idx = (idx + 1) & nt.mask
		}
		d := &nt.slots[idx]
		d.seq.Store(2) // even: stable from the moment of publication
		d.hash.Store(h)
		d.bits.Store(s.bits.Load())
		d.loc.Store(loc) // aliases the old generation's record; see poison
	}
	p.tombs = 0
	p.hand = 0
	p.table.Store(nt)
	for i := range told.slots {
		told.slots[i].seq.Add(1) // permanently odd: readers reload the table
	}
}

// makeRoom readies the partition for one more entry — evict at the
// bound, rebuild a full or tombstone-choked table with live load at or
// below 1/2 (as far as the bound allows) — and returns the slot the
// absent key goes in: findForWrite's claim, or the rebuilt table's.
func (p *partition) makeRoom(claim *slot, hash uint64, key []byte) *slot {
	t := p.table.Load()
	if p.maxEntries > 0 && p.live >= p.maxEntries {
		p.evict(t)
	}
	if claim == nil || p.needRehash(t) {
		size := len(t.slots)
		for p.live*2 >= size && size != p.maxSlots { // an unbounded maxSlots is 0
			size <<= 1
		}
		p.rehash(t, size)
		_, claim = p.findForWrite(p.table.Load(), hash, key)
	}
	return claim
}

// set is the insert/overwrite path. A new key's record is written before
// the slot that will point at it is claimed.
func (p *partition) set(hash uint64, key []byte, e Entry) {
	checkSizes(key, e.Value)
	p.mu.Lock()
	p.stats.sets.Add(1)
	existing, claim := p.findForWrite(p.table.Load(), hash, key)
	if existing != nil {
		p.overwrite(existing, key, e)
	} else {
		s := p.makeRoom(claim, hash, key)
		ref := p.slab.alloc(classOf(recordWords(len(key), len(e.Value))))
		put(p.slab.rec(ref), key, e)
		p.insertAt(s, hash, ref)
	}
	if m := p.mirror.Load(); m != nil {
		m.parts[hash&m.mask].set(hash, key, e)
	}
	p.mu.Unlock()
}

// reserve rebuilds the table, once, to the smallest shape (as far as the
// bound allows) that takes n more entries without another rebuild: the
// n-th insert rebuilds unless (live+n)*8 < 7*size.
func (p *partition) reserve(n int) {
	p.mu.Lock()
	t := p.table.Load()
	if (p.live+p.tombs+n)*8 >= len(t.slots)*7 {
		size := len(t.slots)
		for (p.live+n)*8 >= size*7 && size != p.maxSlots {
			size <<= 1
		}
		p.rehash(t, size)
	}
	p.mu.Unlock()
}

// installAbsent copies src — a record of another store, held stable by
// its partition's writer mutex — into this partition unless a live entry
// (expired or not) already holds its key: one probe, one copy of the
// record's words.
func (p *partition) installAbsent(hash uint64, key []byte, src []atomic.Uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	existing, claim := p.findForWrite(p.table.Load(), hash, key)
	if existing != nil {
		return false
	}
	p.stats.sets.Add(1)
	s := p.makeRoom(claim, hash, key)
	n := recordWords(lengths(src[0].Load()))
	ref := p.slab.alloc(classOf(n))
	r := p.slab.rec(ref)
	for i := range n {
		r[i].Store(src[i].Load())
	}
	p.insertAt(s, hash, ref)
	return true
}

// del removes key, and removes it from the mirror whether or not this
// partition held it.
func (p *partition) del(hash uint64, key []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.deletes.Add(1)
	if m := p.mirror.Load(); m != nil {
		m.parts[hash&m.mask].del(hash, key)
	}
	existing, _ := p.findForWrite(p.table.Load(), hash, key)
	if existing == nil {
		return false
	}
	p.tombstone(existing)
	return true
}

// countInto adds this partition's live entries to want, indexed by the
// partition of a store with mask they would land in.
func (p *partition) countInto(want []int, mask uint64) {
	p.mu.Lock()
	t := p.table.Load()
	for i := range t.slots {
		if s := &t.slots[i]; s.loc.Load()&stateMask == slotLive {
			want[s.hash.Load()&mask]++
		}
	}
	p.mu.Unlock()
}

// fillInto offers every live entry to dst, holding the writer lock for
// the walk so no record changes under the copy.
func (p *partition) fillInto(dst *ShardedStore) (installed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var kb [maxKeyLen + 1]byte
	t := p.table.Load()
	for i := range t.slots {
		s := &t.slots[i]
		loc := s.loc.Load()
		if loc&stateMask != slotLive {
			continue
		}
		h, r := s.hash.Load(), p.slab.rec(loc>>2)
		klen, _ := lengths(r[0].Load())
		if dst.parts[h&dst.mask].installAbsent(h, appendWords(kb[:0], r[recHeader:], klen), r) {
			installed++
		}
	}
	return installed
}
