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
// encode — perform zero heap allocations per steady-state request: a GET
// hit is encoded straight out of the store's lock-free read
// (ShardedStore.AppendGetHit) and a SET copies the value into its
// partition's arena, in place on overwrite (ShardedStore.SetBytes).
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

// ParseDatagram undoes optional UDP framing and parses the request line
// into v. ok=false means the datagram parses neither framed nor raw. The
// host handler and the NIC tier both decode through it.
func ParseDatagram(in []byte, v *memcache.RequestView) (body []byte, framed bool, reqID uint16, ok bool) {
	if f, b, err := memcache.DecodeFrame(in); err == nil && memcache.ParseRequestView(b, v) == nil {
		return b, true, f.RequestID, true
	}
	if memcache.ParseRequestView(in, v) == nil {
		return in, false, 0, true
	}
	return nil, false, 0, false
}

// getTally is one call's GET outcomes, flushed once per HandleBatch (or
// per datagram on the single path): shard workers serving at once would
// otherwise contend on the shared counter lines once per request.
type getTally struct{ hits, misses uint64 }

func (h *Handler) flush(n *getTally) {
	if n.hits > 0 {
		h.hits.Add(n.hits)
	}
	if n.misses > 0 {
		h.misses.Add(n.misses)
	}
}

// HandleDatagram implements dataplane.Handler: serve on one item.
func (h *Handler) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	it := dataplane.BatchItem{In: in, Scratch: scratch}
	var n getTally
	h.serve(&it, simnet.Time(time.Since(h.epoch)), &n)
	h.flush(&n)
	return it.Out, it.Out != nil
}

// HandleBatch implements dataplane.BatchHandler: the virtual clock is
// read and the GET counters are flushed once per batch, and the items
// are served in order, so a batch gets exactly the replies and store
// state the same datagrams would get one at a time. Nothing allocates
// but the multi-key GET.
func (h *Handler) HandleBatch(items []*dataplane.BatchItem) {
	now := simnet.Time(time.Since(h.epoch))
	var n getTally
	for _, it := range items {
		h.serve(it, now, &n)
	}
	h.flush(&n)
}

// serve answers one datagram at now into *it.Scratch, setting it.Out
// unless the request was a noreply mutation.
func (h *Handler) serve(it *dataplane.BatchItem, now simnet.Time, n *getTally) {
	var v memcache.RequestView
	body, framed, reqID, ok := ParseDatagram(it.In, &v)
	if !ok {
		h.malformed.Add(1)
		*it.Scratch = memcache.AppendStatus((*it.Scratch)[:0], memcache.StatusError)
		it.Out = *it.Scratch
		return
	}
	out := (*it.Scratch)[:0]
	if framed {
		out = memcache.AppendFrame(out, memcache.Frame{RequestID: reqID, Total: 1})
	}
	switch {
	case v.Op == memcache.OpGet && !v.MultiKey:
		if hit, ok := h.store.AppendGetHit(out, v.Key, now); ok {
			n.hits++
			out = hit
		} else {
			n.misses++
			out = memcache.AppendStatus(out, memcache.StatusEnd)
		}
	case v.Op == memcache.OpSet:
		h.sets.Add(1)
		var exp int64
		if v.Exptime > 0 {
			exp = int64(now.Add(time.Duration(v.Exptime) * time.Second))
		}
		// The view aliases the receive buffer; SetBytes copies the value
		// into the store (reusing the entry's record on overwrite), so a
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
		n.hits += uint64(len(resp.Items))
		n.misses += uint64(len(req.AllKeys()) - len(resp.Items))
		out = memcache.AppendResponse(out, resp)
	}
	*it.Scratch = out
	if !v.Noreply {
		it.Out = out
	}
}

// ShardByKey hashes a memcached datagram by its request key, falling
// back to the source hash when no key can be peeked. No engine
// dispatches by it: it is the key hash of simhost's on-chip recency
// model. Framing is disambiguated by looking for a command verb at both
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
