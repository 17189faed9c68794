// Package kvs implements the memcached-dialect key-value store of the
// §3.1 case study: the lock-free ShardedStore and the Handler that serves
// the memcached UDP protocol from it. There is one store and one
// handler: inckvsd serves them on sockets, internal/simhost serves the
// same two on the simulator's clock, and the paper's LaKe cost model
// (on-chip and off-chip hit times, the host's service time, the card's
// watts) lives there, in simhost.LaKe, as data attached to the serving
// node.
//
// # ShardedStore memory model
//
// ShardedStore is shared-nothing by construction: a key hashes to
// exactly one partition, each partition has a single writer at a time
// (enforced by a per-partition mutex that only the write path touches;
// the dataplane serves each flow on the shard it arrived on, so two
// flows writing one partition meet here), and any number of lock-free
// readers.
//
// Entries and records. A slot is 32 bytes and holds no pointer: seq,
// hash, a loc word (the record's ref plus empty/live/tombstone) and a
// bits word (the CLOCK reference bit). Everything else
// about an entry is one record of 64-bit words in the partition's arena:
// a header (flags, value length, key length), the expiry, then the key
// and the value, each packed little-endian and zero-padded to a word.
// The arena is a list of pointer-free chunks, allocated on first use,
// each new one as large as all before it from 4 KiB up to 1 MiB, so an
// idle or parked store holds none and the GC never scans one. Records come in 64 fixed size classes
// about 1.25x apart (2 words to the largest record, a 255-byte key and a
// 16 MiB value). An overwrite that keeps the class repacks the record in
// place; one that changes it writes a record of the new class, re-points
// the slot and frees the old one. Delete and eviction free the
// record too. A freed record goes on its class's free list, under the
// writer mutex, and is only reused as a record of that class, so
// steady-state churn allocates nothing and a warm copies record words
// into records carved from the destination's own arena.
//
// The arena's bound. A class's free list is empty whenever a record of
// the class is carved, so a partition never holds more records of class
// c than the most entries of class c it has held at once. A chunk opens
// only when the last one cannot fit the record being carved, so the
// chunks hold less than twice the records' words plus the last chunk
// (1 MiB at most, or the one oversized record it was opened for). Nothing
// is released while the store lives: memory a burst of one class left
// behind serves only that class again (the offload tier's Stage and Park
// drop its whole store).
//
// Seqlock reads. Every slot carries a sequence counter: even means
// stable, odd means a writer is mid-update. A writer brackets every
// slot mutation with seq.Add(1) before and after; a reader snapshots
// the seq, reads the slot and copies the record's header and value out,
// and only believes the copy if the seq is unchanged and even
// afterwards. Slot fields and record words are all Go atomics, so the
// race detector sees only synchronized accesses — the seq exists to
// reject *mixed-version* copies, which individual atomic word loads
// cannot rule out, not to establish happens-before.
//
// Publication order. A new key's record is written completely before
// the bracket in which the writer stores the slot's hash and, last, its
// loc, so a reader either rejects the whole snapshot (seq moved) or
// follows a loc to a complete record. A chunk joins the arena's
// directory before any loc names a record in it, so every loc a reader
// can load resolves.
//
// Why a recycled record is safe. A reader may still hold a loc whose
// record has been freed and reused — for this key's next value of
// another class, or for another key. Three things keep that from being
// served. Chunks are never released, so the stale loc still names
// memory of the same class, and a reader never reads past its chunk.
// Every path that frees a record first moves the seq of the slot that
// pointed at it, so the reader's final validation fails and it retries.
// And a key mismatch is validated too: after a hash match, a record that
// now shows another key may sit under a slot that still holds this one,
// and probing on would report a false miss.
//
// Why the other unvalidated probe steps are safe. A reader walks past a
// hash mismatch and a tombstone without validating, and that is
// linearizable: a live slot's hash changes only when the slot is claimed
// for another key, and a tombstone only ever transitions under a
// concurrent delete or insert — either order is a legal serialization of
// a concurrent read. Returning a hit (the copied value must be one
// version), a miss at an empty slot (the probe's terminator must not be
// a half-claimed insert) and probing on past a key mismatch all
// validate.
//
// Table generations. Growth and tombstone purges build a fresh slot
// array, publish it through an atomic pointer, and then poison every
// slot of the retired array by bumping its seq to odd, forever. The
// poison is load-bearing: records alias between generations (a retired
// slot and its copy name the same record), so a reader still probing the
// retired table must fail validation before the writer mutates or frees
// a record through the new one. A poisoned read reloads the table
// pointer and re-probes.
//
// Table size follows contents: every partition starts at the minimum
// table and grows by generations, no further than 2*bound. FillFrom (the offload tier's warm-up) first
// sizes each destination table for exactly the entries it will receive —
// the shape a store grown by Set to that count settles into — then
// copies store to store, record to record, under both partitions'
// writer mutexes.
//
// The mirror. SetMirror arms a second store (the offload tier's table)
// to receive every Set and Delete of this one, applied inside the
// writer's critical section, so the two stores see each key's writes in
// one order. The lock order is always the source partition, then the
// mirror's: a mirrored write takes them in that order, and so does
// FillFrom from this store into its mirror. Holding the source
// partition's mutex for the walk is what orders a warm against a
// concurrent delete — the delete lands before the walk and the key is
// not copied, or after it and the mirror drops the copy — so a warm cut
// into chunks that yield between them must hold that mutex for each
// whole chunk. Evictions stay local: the mirror bounds and expires its
// own entries.
//
// Eviction is CLOCK second-chance: a GET hit sets the slot's reference
// bit with an atomic OR (no list splice, no lock, and no write at all
// once the bit is set, so a hot entry's line stays clean), and the
// writer's hand clears bits until it finds an unreferenced live entry
// to tombstone. Entries are inserted with the bit clear, so an entry
// earns its second chance on first touch.
//
// Expiry. Lock-free readers cannot remove entries, so a reader that
// observes an entry expired reports a miss and changes nothing; the entry
// stays (and counts toward Len) until a write to its key replaces or
// deletes it, or the CLOCK hand evicts it. Nothing reaps expired entries
// on a timer, which is why every store is bounded: NewShardedStore's
// maxEntries <= 0 selects DefaultMaxEntries, not an unbounded store, so
// distinct keys set with an exptime cannot grow the arena past it.
//
// Hot keys. Each partition optionally feeds a space-saving top-K
// sketch (telemetry.TopK) from sampled GET hits, with the request's own
// key bytes; the sketch copies a key into a reused per-slot buffer only
// when it enters. ShardedStore.HotKeys merges the per-partition
// sketches, which is exact because a key lives in exactly one partition.
package kvs
