package nictier

import (
	"net/netip"
	"sync/atomic"
	"time"

	"incod/internal/dataplane"
	"incod/internal/fpga"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// KVSTier is the LaKe-style fast path (§3.1): one lookaside table in
// front of the host memcached handler, bounded at the (simulation-
// default) DRAM layer's entry count and holding memory only for what it
// caches. A GET hit is one parse, one hash and one lock-free read
// encoded straight onto the reply; GET misses and everything else fall
// through to the host, with SET/DELETE interposed write-through, in
// place, so the table never holds a value the store of record does not
// ("a query is only forwarded to software if there are misses" — here
// the miss *is* the forward). None of it allocates. (The paper's
// on-chip/off-chip hit times live in the cost model the simulated node
// carries, simhost.LaKe.)
//
// Coherence: the tier writes SET and DELETE through to the table when
// it classifies them, so a later GET in the same batch sees the write,
// and the host store writes them again: while the tier is staged its
// table is the store's mirror (kvs.ShardedStore.SetMirror), so the host
// applies each write to the table inside the same writer critical
// section. The last write to any key therefore lands in both stores
// under one lock, whichever engine shards two flows writing it arrive
// on, and Warm's walk of a store partition is ordered against that
// partition's writes by the same lock.
//
// A hit on a framed GET is served Tagged, as kvs.Handler serves it: the
// reply names its request, so the engine may send it ahead of an earlier
// request's reply from the host — LaKe's own order, where a card hit
// leaves before the miss the host software is still answering.
type KVSTier struct {
	store *kvs.ShardedStore // host store of record (warm-up source)
	epoch time.Time         // shared with the host handler's virtual clock

	// cache is replaced only by Stage and Park, which Service runs with
	// the fast path uninstalled (before the flip, after the drain).
	cache  *kvs.ShardedStore
	bound  int
	active atomic.Bool
	power  cardPower

	// Every hit counts under l2_hit — the DRAM-scale layer is the one
	// that survived — and l1_hit stays exported at 0, because benchmark/
	// reads both by name; the next benchmark PR renames them.
	counters                          *telemetry.AtomicCounters
	hits, misses, writes, passthrough *atomic.Uint64
	warmed                            *atomic.Uint64
}

// NewKVS returns a LaKe-style tier in front of h's store, sharing h's
// expiry clock, bounded at kvs.DefaultMaxEntries. The real board's DRAM
// holds 33M value entries (fpga.DRAMValueEntries); the store's default
// bound stays memory-friendly while preserving the hit/miss structure.
func NewKVS(h *kvs.Handler) *KVSTier {
	return NewKVSSized(h, 0, 0)
}

// NewKVSSized is NewKVS with an explicit entry bound (<= 0 selects
// kvs.DefaultMaxEntries). The first capacity is accepted and ignored: it sized
// the L1 the tier no longer has, benchmark/ still passes it, and the
// next benchmark PR removes it.
func NewKVSSized(h *kvs.Handler, _, bound int) *KVSTier {
	if bound <= 0 {
		bound = kvs.DefaultMaxEntries
	}
	c := telemetry.NewAtomicCounters()
	c.Handle("l1_hit")
	return &KVSTier{
		store:       h.Store(),
		epoch:       h.Epoch(),
		cache:       kvs.NewShardedStore(0, bound),
		bound:       bound,
		power:       newCardPower(fpga.LaKeDesign),
		counters:    c,
		hits:        c.Handle("l2_hit"),
		misses:      c.Handle("miss"),
		writes:      c.Handle("write_through"),
		passthrough: c.Handle("passthrough"),
		warmed:      c.Handle("warmed_entries"),
	}
}

// Name implements Tier.
func (t *KVSTier) Name() string { return "lake" }

// Counters implements Tier.
func (t *KVSTier) Counters() *telemetry.AtomicCounters { return t.counters }

// StatsCounters lets dataplane.Snapshot fold the tier counters in.
func (t *KVSTier) StatsCounters() *telemetry.AtomicCounters { return t.counters }

// HitRatio implements Tier: the fraction of classified GETs served from
// the table.
func (t *KVSTier) HitRatio() float64 {
	hits := t.hits.Load()
	total := hits + t.misses.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// PowerWatts implements Tier: the LaKe design draw while serving, the
// park-reset draw while idle.
func (t *KVSTier) PowerWatts() float64 {
	return t.power.watts(t.active.Load())
}

// Stage implements Tier: table dropped — whether or not a Park ran since
// the last Stage — and armed as the store's mirror.
func (t *KVSTier) Stage() error {
	t.cache = kvs.NewShardedStore(0, t.bound)
	t.store.SetMirror(t.cache)
	t.active.Store(true)
	return nil
}

// Warm implements Tier: the LaKe cache activation — bulk-install the
// store of record into the table while the host keeps serving. The table
// is (re)armed as the store's mirror first, so a store write either
// lands before the walk of its partition and is copied, or after it and
// is mirrored; install-if-absent keeps a mirrored value from being
// clobbered by the snapshot. A tier warmed without a Stage (a table kept
// across parks) is kept current the same way.
func (t *KVSTier) Warm() error {
	t.store.SetMirror(t.cache)
	t.warmed.Store(uint64(t.cache.FillFrom(t.store)))
	return nil
}

// Park implements Tier: the §9.2 park-reset — memories in reset, cached
// state lost, and the store's mirror disarmed.
func (t *KVSTier) Park() error {
	t.active.Store(false)
	t.store.SetMirror(nil)
	t.cache = kvs.NewShardedStore(0, t.bound)
	return nil
}

// kvsTally is one call's worth of counter increments, flushed once per
// TryHandleBatch (or per datagram on the single path) instead of once
// per datagram: four shared cache lines touched once, not once each.
type kvsTally struct {
	hits, misses, writes uint64
	parsed               uint64 // well-formed requests, what the meter counts
}

func (t *KVSTier) flush(n *kvsTally) {
	if n.parsed == 0 {
		return
	}
	t.hits.Add(n.hits)
	t.misses.Add(n.misses)
	t.writes.Add(n.writes)
	t.power.meter.Add(n.parsed)
}

// TryHandleDatagram implements dataplane.FastPath.
func (t *KVSTier) TryHandleDatagram(in []byte, _ netip.AddrPort, scratch *[]byte) ([]byte, bool, bool) {
	var n kvsTally
	out, _, served := t.tryHandleAt(in, simnet.Time(time.Since(t.epoch)), scratch, &n)
	t.flush(&n)
	return out, served, served
}

// TryHandleBatch implements dataplane.BatchFastPath: the epoch is read
// and the counters and rate meter are updated once for the whole batch;
// each item takes the same classification as TryHandleDatagram. A served
// item is Tagged exactly when its request was framed, as the host
// handler tags its replies.
func (t *KVSTier) TryHandleBatch(items []*dataplane.BatchItem) {
	now := simnet.Time(time.Since(t.epoch))
	var n kvsTally
	for _, it := range items {
		if out, framed, served := t.tryHandleAt(it.In, now, it.Scratch, &n); served {
			it.Served, it.Out, it.Tagged = true, out, framed
		}
	}
	t.flush(&n)
}

// tryHandleAt classifies one datagram. Only a GET hit is served (and
// always with a reply, framed when the request was, which the second
// result reports); everything else is the host's, after the table has
// seen the write.
func (t *KVSTier) tryHandleAt(in []byte, now simnet.Time, scratch *[]byte, n *kvsTally) ([]byte, bool, bool) {
	var v memcache.RequestView
	_, framed, reqID, ok := kvs.ParseDatagram(in, &v)
	if !ok {
		// Malformed: the host path owns error replies.
		t.passthrough.Add(1)
		return nil, false, false
	}
	n.parsed++
	switch {
	case v.Op == memcache.OpGet && !v.MultiKey:
		// Encode the reply straight out of the lock-free read: the frame
		// header goes down first, then AppendGetHit copies the value
		// bytes in under seqlock validation — no lock, no allocation.
		out := (*scratch)[:0]
		if framed {
			out = memcache.AppendFrame(out, memcache.Frame{RequestID: reqID, Total: 1})
		}
		if res, ok := t.cache.AppendGetHit(out, v.Key, now); ok {
			n.hits++
			*scratch = res
			return res, framed, true
		}
		// Miss: the host software services it (§3.1).
		n.misses++
	case v.Op == memcache.OpSet:
		// Write-through, in place, then fall through so the host store
		// stays authoritative and sends the reply.
		n.writes++
		var exp int64
		if v.Exptime > 0 {
			exp = int64(now.Add(time.Duration(v.Exptime) * time.Second))
		}
		t.cache.SetBytes(v.Key, kvs.Entry{Flags: v.Flags, Value: v.Value, Expires: exp})
	case v.Op == memcache.OpDelete:
		n.writes++
		t.cache.DeleteBytes(v.Key)
	default:
		// Multi-key gets and anything else: the general host path.
		t.passthrough.Add(1)
	}
	return nil, false, false
}
