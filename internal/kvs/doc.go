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
// under the batched dataplane the owning shard is the only writer and
// the mutex is uncontended), and any number of lock-free readers.
//
// Seqlock reads. Every slot carries a sequence counter: even means
// stable, odd means a writer is mid-update. A writer brackets every
// slot mutation with seq.Add(1) before and after; a reader snapshots
// the seq, copies the header and value out, and only believes the copy
// if the seq is unchanged and even afterwards. All shared slot fields
// (including the value payload, packed into 64-bit words) are Go
// atomics, so the race detector sees only synchronized accesses — the
// seq exists to reject *mixed-version* copies, which individual atomic
// word loads cannot rule out, not to establish happens-before.
//
// Publication order. A writer claiming a slot stores key, hash and
// value while the seq is odd and flips the state to live only inside
// the same bracket, so a reader either rejects the whole snapshot (seq
// moved) or sees a fully published entry. Insert-time value arrays are
// filled with atomic stores before the pointer to them is published.
//
// Why unvalidated probe steps are safe. A reader skips seq validation
// when it walks past a slot, and that is linearizable in every case:
// a hash/key mismatch on a live slot can only be wrong about a key
// that a concurrent writer is removing or inserting right now (either
// order is a legal serialization of a concurrent read); a tombstone
// likewise only ever transitions under a concurrent delete/insert; and
// tombstones retain their key/value pointers so a reader that loaded a
// stale state never chases nil. Only two outcomes require validation —
// returning a hit (the copied value must be one version) and returning
// a miss at an empty slot (the probe's terminator must not be a
// half-claimed insert).
//
// Table generations. Growth and tombstone purges build a fresh slot
// array, publish it through an atomic pointer, and then poison every
// slot of the retired array by bumping its seq to odd, forever. The
// poison is load-bearing: value word arrays alias between generations,
// so a reader still probing the retired table must fail validation
// before the writer mutates anything through the new one. A poisoned
// read reloads the table pointer and re-probes.
//
// Table size follows contents: every partition, bounded or not, starts
// at the minimum table and grows by generations, a bounded one no
// further than 2*bound. FillFrom (the offload tier's warm-up) copies
// store to store, slot to slot, under both partitions' writer mutexes;
// the boxed keys it shares between the stores are immutable.
//
// Eviction is CLOCK second-chance: a GET hit sets the slot's reference
// bit with a plain atomic store (no list splice, no lock, and none at
// all once the bit is set, so a hot entry's line stays clean), and the
// writer's hand clears bits until it finds an unreferenced live entry
// to tombstone. Entries are inserted with the bit clear, so an entry
// earns its second chance on first touch.
//
// Expiry. Lock-free readers cannot remove entries, so a reader that
// observes an entry expired reports a miss and CASes a once-flag that
// charges the expiration stat exactly once; the entry itself stays (and
// counts toward Len) until Sweep, running in the writer, reaps it.
//
// Hot keys. Each partition optionally feeds a space-saving top-K
// sketch (telemetry.TopK) from sampled GET hits; ShardedStore.HotKeys
// merges the per-partition sketches, which is exact because a key
// lives in exactly one partition.
package kvs

// MemcachedPort is the UDP port the card's packet classifier matches
// (§3.1).
const MemcachedPort = 11211
