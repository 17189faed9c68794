package dataplane

import (
	"errors"
	"log"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"incod/internal/netio"
	"incod/internal/telemetry"
)

// Handler processes one inbound datagram. in is only valid for the call;
// implementations that keep data must copy it. scratch is a per-worker
// reusable buffer: encode the reply into (*scratch)[:0], store the grown
// slice back through the pointer, and return it — steady state then runs
// without per-request allocation. ok=false sends no reply.
type Handler interface {
	HandleDatagram(in []byte, scratch *[]byte) (out []byte, ok bool)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(in []byte, scratch *[]byte) ([]byte, bool)

// HandleDatagram implements Handler.
func (f HandlerFunc) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	return f(in, scratch)
}

// SourceHandler is implemented by handlers that also need the datagram's
// source address (Paxos roles route by it). When the handler passed to
// New implements SourceHandler, the engine calls HandleDatagramFrom
// instead of HandleDatagram; the returned reply still goes to the source.
type SourceHandler interface {
	HandleDatagramFrom(in []byte, from netip.AddrPort, scratch *[]byte) (out []byte, ok bool)
}

// StatsReporter is implemented by handlers that keep their own protocol
// counters (hits, misses, malformed...); the engine folds a snapshot into
// Stats so they surface on the /v1 control API.
type StatsReporter interface {
	StatsCounters() *telemetry.AtomicCounters
}

// FastPath is an offload tier interposed on dispatch *before* the host
// handler — the emulated NIC of internal/nictier. For each datagram the
// worker first offers it to the installed fast path: served=true means
// the tier consumed it (the host handler never sees it), and reply=true
// with a non-empty out sends out back to the source; served=false falls
// through to the host handler with the datagram untouched. Installing
// and removing a fast path is how a live placement shift becomes real:
// SetFastPath atomically flips dispatch to the tier, ClearFastPath drains
// it without dropping in-flight requests.
//
// Implementations are called concurrently from every shard worker and
// must be safe for that; like Handler, they encode replies into the
// per-worker scratch buffer so a tier hit can stay allocation-free.
type FastPath interface {
	TryHandleDatagram(in []byte, src netip.AddrPort, scratch *[]byte) (out []byte, served, reply bool)
}

// fastPathRef boxes a FastPath so the engine can swap it atomically.
type fastPathRef struct{ fp FastPath }

// Config parameterizes an Engine. The zero value is serviceable.
type Config struct {
	// Name prefixes log lines (default "dataplane").
	Name string
	// Shards is the number of worker goroutines (default GOMAXPROCS).
	Shards int
	// QueueDepth is the per-shard queue length (default 256). In
	// single-reader mode, when a shard's queue is full the datagram is
	// dropped and counted, like a NIC ring overrun — backpressure never
	// blocks the reader — and every queued or collected packet pins one
	// MaxDatagram-sized pooled buffer; doc.go gives the overload memory
	// bound this implies. A batched shard's queue carries only Barrier
	// sentinels.
	QueueDepth int
	// MaxDatagram is the receive buffer size (default 64 KiB, the
	// memcached UDP maximum). Protocols with small datagrams (DNS)
	// should pass their own bound — it also caps overload memory.
	MaxDatagram int
	// ShardBy is ignored: a batched engine serves each datagram on the
	// shard whose socket it arrived on, and the single reader queues it
	// by SourceHash. It stays only because benchmark/ still sets it
	// (ROADMAP item A).
	ShardBy func(payload []byte, src netip.AddrPort) uint64
	// PinShards locks each batched shard worker to an OS thread, which
	// lets its socket wait for datagrams on that thread instead of
	// through the netpoller (see doc.go), and binds the thread to one of
	// the CPUs the process is allowed: shard i to the (i mod n)-th of
	// those n. The binding helps when shards ≤ cores (cache locality, no
	// migration); with more shards than cores it only forces sharing
	// patterns the scheduler would pick anyway, and on platforms without
	// sched_setaffinity it degrades to a logged no-op. Ignored in
	// single-reader mode.
	PinShards bool
	// GSOTx is ignored: a batched engine builds UDP_SEGMENT reply trains
	// wherever the kernel and the shard's rung take them (Stats.GSOTx).
	// It stays only because benchmark/ still sets it (ROADMAP item A).
	GSOTx bool
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "dataplane"
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxDatagram <= 0 {
		c.MaxDatagram = 64 * 1024
	}
	return c
}

// packet is one queued datagram. buf comes from the engine's pool and is
// returned to it by the worker.
type packet struct {
	buf *[]byte
	n   int
	src netip.AddrPort
	// barrier, when non-nil, marks a sentinel injected by Barrier: the
	// worker signals it and handles nothing.
	barrier chan<- struct{}
}

// shard is one worker's queue and counters. The counter block is padded
// on both sides so two pinned workers bumping their own counters never
// false-share a cache line across adjacent shard allocations.
type shard struct {
	ch chan packet

	_         [64]byte
	received  atomic.Uint64
	handled   atomic.Uint64
	offloaded atomic.Uint64
	replies   atomic.Uint64
	dropped   atomic.Uint64
	badSrc    atomic.Uint64
	writeErrs atomic.Uint64
	// Syscall counters: one readBatches per ReadBatch that returned
	// datagrams (a shard's own in batched mode, the reader's on shard 0
	// in single-reader mode), one writeBatches per WriteBatch, so
	// received/readBatches is the measured RX syscall amortization.
	readBatches  atomic.Uint64
	writeBatches atomic.Uint64
	_            [64]byte
}

// Engine is a sharded UDP serving runtime with two I/O modes: the
// classic single-reader mode (one reader goroutine, N shard workers) and
// the batched per-shard-socket mode (NewBatchedConns: each shard reads its
// own SO_REUSEPORT socket in recvmmsg batches and flushes replies with
// sendmmsg). Both share pooled buffers, graceful drain and the
// offload-tier hooks. See the package comment.
type Engine struct {
	conn net.PacketConn
	h    Handler
	disp Dispatcher // fast path first, then h: shared with internal/simhost
	cfg  Config

	// bconns[i] is shard i's transport: its socket in batched mode, a
	// transmit-only wrapper over conn in single-reader mode, where reader
	// is the reader's own receive-only one (nil in batched mode).
	batched bool
	bconns  []netio.BatchConn
	reader  netio.BatchConn
	// gsoTx is the reply-train decision (sendsTrains), made once at
	// construction.
	gsoTx bool
	// pinned records that at least one shard worker successfully bound
	// itself to a CPU (PinShards requested and sched_setaffinity took).
	pinned atomic.Bool

	shards []*shard
	pool   sync.Pool
	// bufsOut tracks pooled receive buffers currently outside the pool
	// (in readers, queues or handlers); it must return to zero after
	// Close, which the overrun tests assert to catch buffer leaks.
	bufsOut atomic.Int64
	meter   *telemetry.AtomicRateMeter
	born    time.Time // the meter's clock reads time.Since(born)

	// fastPath is the installed offload tier (nil = host-only dispatch);
	// lastTier remembers the most recently installed one so Snapshot can
	// keep reporting its lifetime counters after a shift back to host.
	fastPath   atomic.Pointer[fastPathRef]
	lastTier   atomic.Pointer[fastPathRef]
	fpInflight atomic.Int64

	readErrs atomic.Uint64

	closing    atomic.Bool
	started    atomic.Bool
	readerDone chan struct{}
	workersWG  sync.WaitGroup
	closeOnce  sync.Once
	done       chan struct{}
	// barrierMu serializes Barrier's sentinel sends with Close's channel
	// close, so a placement shift racing a shutdown cannot panic on a
	// closed shard queue.
	barrierMu sync.Mutex
}

// New builds an engine serving conn through h in single-reader mode.
// Call Start (or Run) to begin serving and Close to drain and stop.
func New(conn net.PacketConn, h Handler, cfg Config) *Engine {
	e := newEngine(conn, h, cfg)
	e.bconns = make([]netio.BatchConn, len(e.shards))
	for i := range e.bconns {
		e.bconns[i] = netio.NewBatchConn(conn)
	}
	e.reader = netio.NewBatchConn(conn)
	e.gsoTx = sendsTrains(e.bconns)
	return e
}

// newEngine builds the engine state both modes share.
func newEngine(conn net.PacketConn, h Handler, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		conn:       conn,
		h:          h,
		disp:       NewDispatcher(h),
		cfg:        cfg,
		meter:      telemetry.NewAtomicRateMeter(100*time.Millisecond, 10),
		born:       time.Now(),
		readerDone: make(chan struct{}),
		done:       make(chan struct{}),
	}
	e.pool.New = func() any {
		b := make([]byte, cfg.MaxDatagram)
		return &b
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = &shard{ch: make(chan packet, cfg.QueueDepth)}
	}
	return e
}

// LocalAddr returns the serving socket's address (in batched mode, the
// address shared by the whole reuseport group).
func (e *Engine) LocalAddr() net.Addr { return e.conn.LocalAddr() }

// WriteTo transmits an out-of-band datagram from the serving socket, so
// daemon side channels (Paxos role-to-role messages) share the engine's
// source address. In batched mode it sends from shard 0's socket — the
// whole group is bound to one address, so peers cannot tell the
// difference.
func (e *Engine) WriteTo(b []byte, to net.Addr) (int, error) {
	return e.conn.WriteTo(b, to)
}

// getBuf takes a MaxDatagram-sized buffer from the pool, tracking it as
// in flight until putBuf returns it.
func (e *Engine) getBuf() *[]byte {
	e.bufsOut.Add(1)
	return e.pool.Get().(*[]byte)
}

func (e *Engine) putBuf(bufp *[]byte) {
	e.bufsOut.Add(-1)
	e.pool.Put(bufp)
}

// Handled returns the lifetime count of handled datagrams. The daemon
// orchestrator samples this monotonic total instead of being called back
// per packet.
func (e *Engine) Handled() uint64 { return e.meter.Total() }

// SetFastPath installs fp as the offload tier: from the next dequeued
// datagram on, every worker offers traffic to fp before the host handler.
// Passing nil is equivalent to ClearFastPath. Datagrams already being
// handled by the host when the flip lands finish on the host; callers
// that need those to have fully landed before snapshotting host state
// (cache warm-up, state handoff) follow with Barrier.
func (e *Engine) SetFastPath(fp FastPath) {
	if fp == nil {
		e.ClearFastPath()
		return
	}
	ref := &fastPathRef{fp: fp}
	e.fastPath.Store(ref)
	e.lastTier.Store(ref)
}

// ClearFastPath uninstalls the offload tier and drains it: it blocks
// until no worker is still dispatching a datagram (or batch) it offered
// to the tier, so when it returns the tier can be parked (state flushed)
// without dropping an in-flight request. Subsequent datagrams go to the host handler. The
// wait escalates from Gosched through growing sleeps, so a tier call
// stalled mid-shift-down cannot peg a core.
func (e *Engine) ClearFastPath() {
	e.fastPath.Store(nil)
	for spins := 0; e.fpInflight.Load() != 0; spins++ {
		switch {
		case spins < 64:
			runtime.Gosched()
		case spins < 256:
			time.Sleep(20 * time.Microsecond)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// enterTier returns the installed fast path for one dispatch (nil = none)
// and whether it took a fence token, which the worker gives back with
// fpInflight.Add(-1) once the dispatch is done. Token first, then
// re-load: ClearFastPath stores nil and waits for fpInflight==0, so once
// it reads zero, any worker that later takes a token re-reads the
// pointer as nil — no worker can slip into a tier that is being parked.
func (e *Engine) enterTier() (fp FastPath, fenced bool) {
	if e.fastPath.Load() == nil {
		return nil, false
	}
	e.fpInflight.Add(1)
	if ref := e.fastPath.Load(); ref != nil {
		fp = ref.fp
	}
	return fp, true
}

// Barrier blocks until every shard worker has finished the datagrams it
// had dequeued (or queued ahead of the sentinel) when Barrier was called.
// The offload shift uses it after SetFastPath so host-handled stragglers
// from before the flip have fully landed before transition work snapshots
// host state. It is safe against a concurrent Close — a shutdown racing
// a shift degrades to a no-op barrier rather than a panic; on an engine
// that is not started (or already closing) it is a no-op.
func (e *Engine) Barrier() {
	if !e.started.Load() {
		return
	}
	done := make(chan struct{}, len(e.shards))
	sent := 0
	e.barrierMu.Lock()
	// Re-check under the lock: Close sets closing before it waits for
	// barrierMu, so either we see it here (and skip the sends) or we
	// finish sending before Close can close the queues.
	if !e.closing.Load() {
		for _, s := range e.shards {
			s.ch <- packet{barrier: done}
		}
		sent = len(e.shards)
	}
	e.barrierMu.Unlock()
	for i := 0; i < sent; i++ {
		<-done
	}
}

// Start launches the serving goroutines: the reader plus the shard
// workers in single-reader mode, or one socket-reading worker per shard
// in batched mode. It is not idempotent; call it once.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	if e.batched {
		for i := range e.shards {
			e.workersWG.Add(1)
			go e.batchWorker(i)
		}
		return
	}
	// A single-reader shard worker is a batched worker that never reads:
	// it drains its queue a collected batch at a time until Close closes
	// it, replying through its own transmit conn.
	for i := range e.shards {
		e.workersWG.Add(1)
		go func() {
			defer e.workersWG.Done()
			e.newBatchState(i).drainQueue(true)
		}()
	}
	go e.readLoop()
}

// Run starts the engine and blocks until Close has fully drained it.
func (e *Engine) Run() {
	e.Start()
	<-e.done
}

// Running reports whether the engine is serving right now: started and
// not yet closing. It is the daemons' readiness signal — the /v1/healthz
// endpoint answers 200 only while this is true, so a fleet controller
// can gate traffic replay on actual serving instead of sleeping.
func (e *Engine) Running() bool {
	return e.started.Load() && !e.closing.Load()
}

// Close gracefully drains the engine: the readers stop accepting new
// datagrams, already-queued ones are handled and answered, then the
// socket(s) close. It is idempotent and blocks until the drain
// completes.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.closing.Store(true)
		if e.started.Load() {
			// Unblock the reader(s) without tearing the sockets down, so
			// queued replies can still be written during the drain. A
			// batched worker enqueues nothing, so its queue may close at
			// once; the single reader's must not close under it.
			if e.batched {
				now := time.Now()
				for _, bc := range e.bconns {
					_ = bc.SetReadDeadline(now)
				}
			} else {
				_ = e.reader.SetReadDeadline(time.Now())
				<-e.readerDone
			}
			// Hold barrierMu across the close: a Barrier that already
			// passed its closing check finishes its sends first (the
			// workers are still draining, so those sends progress).
			e.barrierMu.Lock()
			for _, s := range e.shards {
				close(s.ch)
			}
			e.barrierMu.Unlock()
			e.workersWG.Wait()
		}
		if e.batched {
			for _, bc := range e.bconns {
				_ = bc.Close()
			}
		} else {
			_ = e.conn.Close()
		}
		close(e.done)
	})
}

// readLoop is the single reader. It reads up to rxBatch datagrams per
// ReadBatch through its own conn over the socket (recvmmsg and UDP_GRO
// trains on Linux, one datagram per call elsewhere) and moves each into
// its source's shard queue with buffer ownership (processRead). A full
// queue drops the datagram and the buffer stays in its slot.
// The reader runs no handler, so backpressure never blocks it. Its reads
// count in shard 0's read_batches, so only the engine-wide rx_per_read
// is the reader's amortization.
func (e *Engine) readLoop() {
	defer close(e.readerDone)
	w := &batchState{
		e: e, s: e.shards[0], i: readerShard, bc: e.reader,
		rx:     make([]netio.Message, rxBatch),
		rxBufs: make([]*[]byte, rxBatch),
	}
	defer w.release()
	for {
		w.fillRx()
		n, err := w.bc.ReadBatch(w.rx)
		if err == nil {
			w.s.readBatches.Add(1)
			w.processRead(n)
			continue
		}
		if e.closing.Load() {
			return
		}
		if errors.Is(err, net.ErrClosed) {
			// Not our shutdown path: the socket is gone, so serving
			// is over — but only shutdown exits silently.
			log.Printf("%s: socket closed unexpectedly: %v", e.cfg.Name, err)
			return
		}
		// Transient: async ICMP errors surfaced by a previous write,
		// spurious wakeups. Count, log sparsely, keep serving.
		if c := e.readErrs.Add(1); c&(c-1) == 0 {
			log.Printf("%s: transient read error (#%d, serving continues): %v", e.cfg.Name, c, err)
		}
	}
}

// shardIndex is the single reader's dispatch: the shard src's flow
// belongs to.
func (e *Engine) shardIndex(src netip.AddrPort) int {
	if len(e.shards) == 1 {
		return 0
	}
	return int(SourceHash(nil, src) % uint64(len(e.shards)))
}

// FNV-1a, the dispatch hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashBytes returns the FNV-1a hash of b, the key hash of key-sharded
// stores.
func HashBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// HashString is HashBytes for a string, without a conversion.
func HashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// SourceHash is the single reader's dispatch: hash the source address
// and port, so each client flow is handled in order by one worker.
func SourceHash(_ []byte, src netip.AddrPort) uint64 {
	a := src.Addr().As16()
	h := uint64(fnvOffset)
	for _, c := range a {
		h = (h ^ uint64(c)) * fnvPrime
	}
	p := src.Port()
	h = (h ^ uint64(p&0xFF)) * fnvPrime
	h = (h ^ uint64(p>>8)) * fnvPrime
	return h
}
