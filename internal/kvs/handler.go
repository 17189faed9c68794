package kvs

import (
	"net/netip"
	"sync/atomic"
	"time"

	"incod/internal/dataplane"
	"incod/internal/memcache"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// Handler serves the memcached UDP protocol from a ShardedStore — the
// dataplane adapter behind inckvsd. Framed datagrams (memcached UDP mode)
// and raw ASCII both work; the 8-byte frame header is all-binary so
// framing is ambiguous, and the framed interpretation wins when both
// parse. Expiry runs against a virtual clock started at construction,
// matching the simulator's relative-exptime semantics.
//
// The single-key GET, SET and DELETE paths — parse, shard lookup/mutate,
// encode — perform zero heap allocations per steady-state request: GETs
// encode under the shard lock (ShardedStore.AppendGetHit/AppendGetBatch)
// and SET overwrites reuse the entry's value buffer in place
// (ShardedStore.SetBytes); only a first-time insert allocates.
type Handler struct {
	store *ShardedStore
	epoch time.Time

	counters  *telemetry.AtomicCounters
	hits      *atomic.Uint64
	misses    *atomic.Uint64
	sets      *atomic.Uint64
	deletes   *atomic.Uint64
	multiget  *atomic.Uint64
	malformed *atomic.Uint64
}

var _ dataplane.Handler = (*Handler)(nil)
var _ dataplane.BatchHandler = (*Handler)(nil)
var _ dataplane.StatsReporter = (*Handler)(nil)

// NewHandler returns a handler serving store.
func NewHandler(store *ShardedStore) *Handler {
	c := telemetry.NewAtomicCounters()
	return &Handler{
		store:     store,
		epoch:     time.Now(),
		counters:  c,
		hits:      c.Handle("hits"),
		misses:    c.Handle("misses"),
		sets:      c.Handle("sets"),
		deletes:   c.Handle("deletes"),
		multiget:  c.Handle("multiget"),
		malformed: c.Handle("malformed"),
	}
}

// Store returns the handler's backing store.
func (h *Handler) Store() *ShardedStore { return h.store }

// Epoch returns the handler's virtual-clock origin. The NIC offload tier
// shares it so both substrates judge entry expiry identically.
func (h *Handler) Epoch() time.Time { return h.epoch }

// StatsCounters exposes protocol counters on the /v1 control API.
func (h *Handler) StatsCounters() *telemetry.AtomicCounters { return h.counters }

// HotKeys exposes the store's merged hot-key top-K on the /v1 control
// API (nil unless ShardedStore.EnableHotKeys was called).
func (h *Handler) HotKeys(max int) []telemetry.HotKey { return h.store.HotKeys(max) }

// parseRequest undoes optional UDP framing and parses the request line
// into v. ok=false means the datagram parses neither framed nor raw.
func parseRequest(in []byte, v *memcache.RequestView) (body []byte, framed bool, reqID uint16, ok bool) {
	if f, b, err := memcache.DecodeFrame(in); err == nil && memcache.ParseRequestView(b, v) == nil {
		return b, true, f.RequestID, true
	}
	if memcache.ParseRequestView(in, v) == nil {
		return in, false, 0, true
	}
	return nil, false, 0, false
}

// HandleDatagram implements dataplane.Handler.
func (h *Handler) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	now := simnet.Time(time.Since(h.epoch))
	var v memcache.RequestView
	body, framed, reqID, ok := parseRequest(in, &v)
	if !ok {
		h.malformed.Add(1)
		*scratch = memcache.AppendStatus((*scratch)[:0], memcache.StatusError)
		return *scratch, true
	}
	out := (*scratch)[:0]
	if framed {
		out = memcache.AppendFrame(out, memcache.Frame{RequestID: reqID, Total: 1})
	}
	if v.Op == memcache.OpGet && !v.MultiKey {
		if hit, ok := h.store.AppendGetHit(out, v.Key, now); ok {
			h.hits.Add(1)
			out = hit
		} else {
			h.misses.Add(1)
			out = memcache.AppendStatus(out, memcache.StatusEnd)
		}
	} else {
		out = h.applyOther(&v, body, now, out)
		if v.Noreply {
			// Mutation applied; the protocol's fire-and-forget marker
			// suppresses the acknowledgement.
			*scratch = out
			return nil, false
		}
	}
	*scratch = out
	return out, true
}

// applyOther serves everything but the single-key GET fast path,
// appending the reply to out.
func (h *Handler) applyOther(v *memcache.RequestView, body []byte, now simnet.Time, out []byte) []byte {
	switch {
	case v.Op == memcache.OpSet:
		h.sets.Add(1)
		var exp int64
		if v.Exptime > 0 {
			exp = int64(now.Add(time.Duration(v.Exptime) * time.Second))
		}
		// The view aliases the receive buffer; SetBytes copies the value
		// into the store (reusing the entry's buffer on overwrite), so a
		// steady-state SET allocates nothing.
		h.store.SetBytes(v.Key, Entry{Flags: v.Flags, Value: v.Value, Expires: exp})
		out = memcache.AppendStatus(out, memcache.StatusStored)
	case v.Op == memcache.OpDelete:
		h.deletes.Add(1)
		if h.store.DeleteBytes(v.Key) {
			out = memcache.AppendStatus(out, memcache.StatusDeleted)
		} else {
			out = memcache.AppendStatus(out, memcache.StatusNotFound)
		}
	default: // multi-key get: the general, allocating path
		h.multiget.Add(1)
		req, err := memcache.ParseRequest(body)
		if err != nil {
			out = memcache.AppendStatus(out, memcache.StatusError)
			break
		}
		resp := h.store.Apply(req, now)
		h.hits.Add(uint64(len(resp.Items)))
		h.misses.Add(uint64(len(req.AllKeys()) - len(resp.Items)))
		out = memcache.AppendResponse(out, resp)
	}
	return out
}

// HandleBatch implements dataplane.BatchHandler: the virtual clock is
// read once per chunk and every single-key GET in the chunk resolves
// through ShardedStore.AppendGetBatch, so each store shard's lock is
// taken once per chunk instead of once per request and every hit is
// encoded onto its reply buffer while that lock is held; hit/miss
// counters are bumped once per chunk too. Mutations apply in batch order
// during the classification pass, so a GET may observe a later mutation
// from the same batch early — indistinguishable from UDP reordering,
// which the protocol already tolerates. Neither the GET path nor the
// SET/DELETE path allocates.
func (h *Handler) HandleBatch(items []*dataplane.BatchItem) {
	for off := 0; off < len(items); off += getBatchChunk {
		h.handleChunk(items[off:min(off+getBatchChunk, len(items))])
	}
}

func (h *Handler) handleChunk(items []*dataplane.BatchItem) {
	now := simnet.Time(time.Since(h.epoch))
	var (
		getIdx [getBatchChunk]int
		keys   [getBatchChunk][]byte
		outs   [getBatchChunk]*[]byte
		found  [getBatchChunk]bool
	)
	nGets := 0
	for i, it := range items {
		var v memcache.RequestView
		body, fr, id, ok := parseRequest(it.In, &v)
		if !ok {
			h.malformed.Add(1)
			*it.Scratch = memcache.AppendStatus((*it.Scratch)[:0], memcache.StatusError)
			it.Out = *it.Scratch
			continue
		}
		out := (*it.Scratch)[:0]
		if fr {
			out = memcache.AppendFrame(out, memcache.Frame{RequestID: id, Total: 1})
		}
		if v.Op == memcache.OpGet && !v.MultiKey {
			// Seed the reply with its frame header now; AppendGetBatch
			// appends the hit lines under the shard lock.
			*it.Scratch = out
			getIdx[nGets] = i
			keys[nGets] = v.Key
			outs[nGets] = it.Scratch
			nGets++
			continue
		}
		out = h.applyOther(&v, body, now, out)
		*it.Scratch = out
		if v.Noreply {
			continue // mutation applied, no acknowledgement; it.Out stays empty
		}
		it.Out = out
	}
	if nGets == 0 {
		return
	}
	h.store.AppendGetBatch(keys[:nGets], now, outs[:nGets], found[:nGets])
	hits := 0
	for g := 0; g < nGets; g++ {
		it := items[getIdx[g]]
		if found[g] {
			hits++
		} else {
			*it.Scratch = memcache.AppendStatus(*it.Scratch, memcache.StatusEnd)
		}
		it.Out = *it.Scratch
	}
	h.hits.Add(uint64(hits))
	if misses := nGets - hits; misses > 0 {
		h.misses.Add(uint64(misses))
	}
}

// ShardByKey is the dataplane dispatch for memcached traffic: requests
// hash by their key, so one worker owns one key range (cache-friendly and
// contention-free), falling back to source hashing when no key can be
// peeked. Framing is disambiguated by looking for a command verb at both
// offsets, which keeps the mapping deterministic per datagram.
func ShardByKey(payload []byte, src netip.AddrPort) uint64 {
	if k := requestKey(payload); len(k) > 0 {
		return dataplane.HashBytes(k)
	}
	return dataplane.SourceHash(payload, src)
}

func requestKey(p []byte) []byte {
	if hasVerb(p) {
		return peekKey(p)
	}
	if len(p) > memcache.FrameHeaderSize && hasVerb(p[memcache.FrameHeaderSize:]) {
		return peekKey(p[memcache.FrameHeaderSize:])
	}
	return nil
}

func hasVerb(b []byte) bool {
	for _, verb := range [...]string{"get ", "gets ", "set ", "delete "} {
		if len(b) >= len(verb) && string(b[:len(verb)]) == verb {
			return true
		}
	}
	return false
}

// peekKey returns the second field of the first request line — the key
// position for get, set and delete alike.
func peekKey(b []byte) []byte {
	i := 0
	for i < len(b) && b[i] != ' ' && b[i] != '\r' {
		i++
	}
	for i < len(b) && b[i] == ' ' {
		i++
	}
	j := i
	for j < len(b) && b[j] != ' ' && b[j] != '\r' {
		j++
	}
	return b[i:j]
}
