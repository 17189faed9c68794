package dns

import (
	"errors"
	"sync/atomic"

	"incod/internal/dataplane"
	"incod/internal/telemetry"
)

// Handler serves authoritative A lookups from a Zone — the dataplane
// adapter behind incdnsd. The zone must be fully loaded before serving
// starts: a Zone is safe for any number of concurrent readers only while
// nobody writes, which is exactly the daemon's lifecycle (load, then
// serve).
//
// The hot path is allocation-free for every outcome: queries parse into
// a QuestionView over the datagram, hits are one copy of the record's
// precompiled wire answer plus an ID/flags patch, and negative responses
// echo the question section verbatim. Only queries with compression
// pointers in the question name take the allocating Decode fallback.
type Handler struct {
	zone *Zone

	counters  *telemetry.AtomicCounters
	answered  *atomic.Uint64
	nxdomain  *atomic.Uint64
	notimpl   *atomic.Uint64
	malformed *atomic.Uint64
	ignored   *atomic.Uint64
}

var _ dataplane.Handler = (*Handler)(nil)
var _ dataplane.BatchHandler = (*Handler)(nil)
var _ dataplane.StatsReporter = (*Handler)(nil)

// NewHandler returns a handler serving zone.
func NewHandler(zone *Zone) *Handler {
	c := telemetry.NewAtomicCounters()
	return &Handler{
		zone:      zone,
		counters:  c,
		answered:  c.Handle("answered"),
		nxdomain:  c.Handle("nxdomain"),
		notimpl:   c.Handle("notimpl"),
		malformed: c.Handle("malformed"),
		ignored:   c.Handle("ignored"),
	}
}

// StatsCounters exposes protocol counters on the /v1 control API.
func (h *Handler) StatsCounters() *telemetry.AtomicCounters { return h.counters }

// serve verdicts, indexing batchCounts.
const (
	vAnswered = iota
	vNXDomain
	vNotImpl
	vMalformed
	vIgnored
	vCount
)

// serve resolves one datagram into the scratch buffer, returning the
// reply (nil for dropped datagrams) and the verdict to count.
func (h *Handler) serve(in []byte, scratch *[]byte) ([]byte, int) {
	var v QuestionView
	err := ParseQuestion(in, 0, &v)
	if err != nil {
		if errors.Is(err, ErrCompressedName) {
			return h.serveCompressed(in, scratch)
		}
		return nil, vMalformed
	}
	if v.Response() {
		return nil, vIgnored
	}
	if v.QType != TypeA || v.QClass != ClassIN {
		*scratch = AppendNoAnswer((*scratch)[:0], in, &v, RCodeNotImpl)
		return *scratch, vNotImpl
	}
	if a, ok := h.zone.LookupWire(v.QName); ok {
		*scratch = a.AppendReply((*scratch)[:0], &v)
		return *scratch, vAnswered
	}
	*scratch = AppendNoAnswer((*scratch)[:0], in, &v, RCodeNXDomain)
	return *scratch, vNXDomain
}

// serveCompressed is the rare fallback for queries whose question name
// uses compression pointers: the allocating string codec, semantics
// unchanged from the pre-wire-cache handler.
func (h *Handler) serveCompressed(in []byte, scratch *[]byte) ([]byte, int) {
	q, err := Decode(in, 0)
	if err != nil {
		return nil, vMalformed
	}
	if q.Response {
		return nil, vIgnored
	}
	resp := h.zone.Resolve(q)
	out, err := AppendMessage((*scratch)[:0], resp)
	if err != nil {
		return nil, vMalformed
	}
	*scratch = out
	switch {
	case resp.HasAnswer:
		return out, vAnswered
	case resp.RCode == RCodeNXDomain:
		return out, vNXDomain
	default:
		return out, vNotImpl
	}
}

func (h *Handler) count(verdict int, n uint64) {
	if n == 0 {
		return
	}
	switch verdict {
	case vAnswered:
		h.answered.Add(n)
	case vNXDomain:
		h.nxdomain.Add(n)
	case vNotImpl:
		h.notimpl.Add(n)
	case vMalformed:
		h.malformed.Add(n)
	case vIgnored:
		h.ignored.Add(n)
	}
}

// HandleDatagram implements dataplane.Handler: parse the question,
// resolve it against the zone's wire-answer cache, patch the reply into
// the scratch buffer. Malformed datagrams and stray responses are
// dropped, like the old read loop (and real resolvers) did.
func (h *Handler) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	out, verdict := h.serve(in, scratch)
	h.count(verdict, 1)
	return out, out != nil
}

// HandleBatch implements dataplane.BatchHandler: every datagram takes
// the same zero-alloc resolve as HandleDatagram (the zone is read
// lock-free, so there is no lock to amortize), with the protocol
// counters accumulated locally and flushed once per batch instead of
// once per datagram. Every reply is Tagged: an answer, NXDOMAIN or
// NOTIMPL, from the wire cache or the compressed-name fallback, repeats
// its query's ID, so the client matches it in any order and a flush may
// send a client's hits as one train ahead of its shorter NXDOMAINs.
func (h *Handler) HandleBatch(items []*dataplane.BatchItem) {
	var counts [vCount]uint64
	for _, it := range items {
		out, verdict := h.serve(it.In, it.Scratch)
		counts[verdict]++
		if out != nil {
			it.Out, it.Tagged = out, true
		}
	}
	for verdict, n := range counts {
		h.count(verdict, n)
	}
}
