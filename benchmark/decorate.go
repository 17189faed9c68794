package main

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"incod/internal/dataplane"
	"incod/internal/netio"
	"incod/internal/nictier"
)

// Timing decorators for the four public seams of a daemon's stack: the
// transport (netio.BatchConn, or the bare net.PacketConn of the
// single-reader engine), the handler, the offload tier, and the shift
// calls. The engine discovers optional behaviour by type assertion —
// BatchHandler, SourceHandler, StatsReporter, HotKeyReporter,
// BatchFastPath, TxStatser, UringStatser, Backend() — so a wrapper that
// implemented fewer of them than what it wraps would silently push the
// engine onto its per-datagram path, and one that implemented more would
// make it call methods the inner value does not have. Every wrapper
// here therefore has exactly the method set of what it wraps.

// --- transport ---------------------------------------------------------------

// connCore times ReadBatch and WriteBatch and keeps the turn that is open
// on this socket: it begins when a read returns datagrams and ends when
// the worker comes back for the next read.
type connCore struct {
	netio.BatchConn
	t *tracer

	turn      uint32
	turnStart time.Time
	turnN     int
}

func (c *connCore) ReadBatch(ms []netio.Message) (int, error) {
	start := time.Now()
	if c.turn != 0 {
		c.t.add(spTurn, c.turn, c.turnN, c.turnStart, start)
		c.turn = 0
	}
	n, err := c.BatchConn.ReadBatch(ms)
	end := time.Now()
	if n > 0 {
		c.turn = c.t.turns.Add(1)
		c.turnStart, c.turnN = end, n
		c.t.cur.Store(c.turn)
		c.t.add(spRead, c.turn, n, start, end)
	}
	return n, err
}

func (c *connCore) WriteBatch(ms []netio.Message) (int, error) {
	start := time.Now()
	n, err := c.BatchConn.WriteBatch(ms)
	segs := 0
	for i := 0; i < n; i++ {
		segs += ms[i].Segments()
	}
	c.t.add(spWrite, c.turn, segs, start, time.Now())
	return n, err
}

type (
	connBackend struct{ b interface{ Backend() string } }
	connTx      struct{ netio.TxStatser }
	connUring   struct{ netio.UringStatser }
)

func (c connBackend) Backend() string { return c.b.Backend() }

// wrapConn returns bc timed, with bc's optional interfaces and no others.
func wrapConn(bc netio.BatchConn, t *tracer) (netio.BatchConn, error) {
	core := &connCore{BatchConn: bc, t: t}
	b, hasB := bc.(interface{ Backend() string })
	tx, hasTx := bc.(netio.TxStatser)
	ur, hasUr := bc.(netio.UringStatser)
	switch {
	case hasB && hasTx && hasUr:
		return struct {
			*connCore
			connBackend
			connTx
			connUring
		}{core, connBackend{b}, connTx{tx}, connUring{ur}}, nil
	case hasB && hasTx:
		return struct {
			*connCore
			connBackend
			connTx
		}{core, connBackend{b}, connTx{tx}}, nil
	case !hasB && !hasTx && !hasUr:
		return core, nil
	}
	return nil, fmt.Errorf("decorate: %T has an interface combination the transport wrapper does not reproduce", bc)
}

// packetConn times the single-reader engine's socket. That engine has a
// faster path for a bare *net.UDPConn, which no wrapper can keep, so the
// decorated single-reader twin runs the engine's generic ReadFrom/WriteTo
// path; trace.overhead_pct reports what that and the timing cost. Reads
// happen on the reader goroutine, ahead of the worker, so a turn here is
// the worker's side only: the handler call up to the end of the reply's
// write. The reader-to-worker queue hop is outside it.
type packetConn struct {
	net.PacketConn
	t *tracer
}

func (c *packetConn) ReadFrom(b []byte) (int, net.Addr, error) {
	start := time.Now()
	n, a, err := c.PacketConn.ReadFrom(b)
	if err == nil {
		c.t.add(spRead, c.t.turns.Add(1), 1, start, time.Now())
	}
	return n, a, err
}

func (c *packetConn) WriteTo(b []byte, a net.Addr) (int, error) {
	start := time.Now()
	n, err := c.PacketConn.WriteTo(b, a)
	end := time.Now()
	// The one worker handles datagrams in arrival order, so this write
	// closes the turn its handler call opened.
	turn := c.t.cur.Load()
	c.t.add(spWrite, turn, 1, start, end)
	c.t.add(spTurn, turn, 1, time.Unix(0, c.t.curStart.Load()), end)
	return n, err
}

// --- handler -----------------------------------------------------------------

type handlerCore struct {
	h dataplane.Handler
	t *tracer
	// single marks the single-reader engine, where the handler call is
	// what opens a turn: the k-th call belongs to the k-th datagram read.
	single bool
	calls  uint32
}

func (c *handlerCore) turnFor() uint32 {
	if c.single {
		c.calls++
		c.t.cur.Store(c.calls)
		c.t.curStart.Store(time.Now().UnixNano())
		return c.calls
	}
	return c.t.cur.Load()
}

func (c *handlerCore) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	turn := c.turnFor()
	start := time.Now()
	out, ok := c.h.HandleDatagram(in, scratch)
	c.t.add(spHandler, turn, 1, start, time.Now())
	return out, ok
}

type (
	handlerBatch  struct{ c *handlerCore }
	handlerSource struct{ c *handlerCore }
	handlerStats  struct{ dataplane.StatsReporter }
	handlerHot    struct{ dataplane.HotKeyReporter }
)

func (b handlerBatch) HandleBatch(items []*dataplane.BatchItem) {
	turn := b.c.turnFor()
	start := time.Now()
	b.c.h.(dataplane.BatchHandler).HandleBatch(items)
	b.c.t.add(spHandler, turn, len(items), start, time.Now())
}

func (s handlerSource) HandleDatagramFrom(in []byte, from netip.AddrPort, scratch *[]byte) ([]byte, bool) {
	turn := s.c.turnFor()
	start := time.Now()
	out, ok := s.c.h.(dataplane.SourceHandler).HandleDatagramFrom(in, from, scratch)
	s.c.t.add(spHandler, turn, 1, start, time.Now())
	return out, ok
}

// wrapHandler returns h timed, with h's optional interfaces and no
// others. Go fixes a value's method set at compile time, so each set the
// engine can probe for is its own type; the sets below are the ones the
// repository's handlers have (acceptor; DNS; KVS; the source-routed Paxos
// roles), and any other is refused rather than approximated.
func wrapHandler(h dataplane.Handler, t *tracer, single bool) (dataplane.Handler, error) {
	c := &handlerCore{h: h, t: t, single: single}
	_, batch := h.(dataplane.BatchHandler)
	_, source := h.(dataplane.SourceHandler)
	st, stats := h.(dataplane.StatsReporter)
	hk, hot := h.(dataplane.HotKeyReporter)
	b, s, r, k := handlerBatch{c}, handlerSource{c}, handlerStats{st}, handlerHot{hk}
	switch [4]bool{batch, source, stats, hot} {
	case [4]bool{false, false, false, false}:
		return c, nil
	case [4]bool{true, false, false, false}:
		return struct {
			*handlerCore
			handlerBatch
		}{c, b}, nil
	case [4]bool{false, true, false, false}:
		return struct {
			*handlerCore
			handlerSource
		}{c, s}, nil
	case [4]bool{true, false, true, false}:
		return struct {
			*handlerCore
			handlerBatch
			handlerStats
		}{c, b, r}, nil
	case [4]bool{true, false, true, true}:
		return struct {
			*handlerCore
			handlerBatch
			handlerStats
			handlerHot
		}{c, b, r, k}, nil
	}
	return nil, fmt.Errorf("decorate: %T has an interface combination the handler wrapper does not reproduce", h)
}

// --- offload tier ------------------------------------------------------------

// batchTier is what all three tiers are: a Tier that also takes whole
// batches and reports counters to the engine's snapshot.
type batchTier interface {
	nictier.Tier
	dataplane.BatchFastPath
	dataplane.StatsReporter
}

// tracedTier times the tier's serving calls and its shift lifecycle.
// Name, Counters, HitRatio, PowerWatts and StatsCounters pass through
// the embedded interface, so the engine's snapshot sees the tier itself.
type tracedTier struct {
	batchTier
	t *tracer
}

func wrapTier(tier nictier.Tier, t *tracer) (nictier.Tier, error) {
	bt, ok := tier.(batchTier)
	if !ok {
		return nil, fmt.Errorf("decorate: %T is not a batch tier with counters; the tier wrapper would change how the engine calls it", tier)
	}
	return &tracedTier{batchTier: bt, t: t}, nil
}

func (w *tracedTier) TryHandleDatagram(in []byte, src netip.AddrPort, scratch *[]byte) ([]byte, bool, bool) {
	start := time.Now()
	out, served, reply := w.batchTier.TryHandleDatagram(in, src, scratch)
	w.t.add(spTier, w.t.cur.Load(), 1, start, time.Now())
	return out, served, reply
}

func (w *tracedTier) TryHandleBatch(items []*dataplane.BatchItem) {
	start := time.Now()
	w.batchTier.TryHandleBatch(items)
	w.t.add(spTier, w.t.cur.Load(), len(items), start, time.Now())
}

func (w *tracedTier) lifecycle(name spanName, fn func() error) error {
	start := time.Now()
	err := fn()
	w.t.add(name, 0, 0, start, time.Now())
	return err
}

func (w *tracedTier) Stage() error { return w.lifecycle(spStage, w.batchTier.Stage) }
func (w *tracedTier) Warm() error  { return w.lifecycle(spWarm, w.batchTier.Warm) }
func (w *tracedTier) Park() error  { return w.lifecycle(spPark, w.batchTier.Park) }

// --- shift calls -------------------------------------------------------------

// tracedDataplane times the three engine calls a placement shift makes.
type tracedDataplane struct {
	eng nictier.Dataplane
	t   *tracer
}

func (d *tracedDataplane) SetFastPath(fp dataplane.FastPath) {
	start := time.Now()
	d.eng.SetFastPath(fp)
	d.t.add(spSetFastPath, 0, 0, start, time.Now())
}

func (d *tracedDataplane) ClearFastPath() {
	start := time.Now()
	d.eng.ClearFastPath()
	d.t.add(spClearFastPath, 0, 0, start, time.Now())
}

func (d *tracedDataplane) Barrier() {
	start := time.Now()
	d.eng.Barrier()
	d.t.add(spBarrier, 0, 0, start, time.Now())
}
