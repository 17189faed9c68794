package dataplane

import (
	"errors"
	"log"
	"net"
	"net/netip"
	"runtime"

	"incod/internal/netio"
)

// BatchItem is one datagram of a batch in flight through the batched
// engine. In and Src are inputs; a handler encodes its reply into
// (*Scratch)[:0] (each item has its own reusable buffer, so replies in
// one batch never alias) and sets Out to the encoded bytes — a nil or
// empty Out sends nothing. Served is set by a BatchFastPath when the
// offload tier consumed the datagram, in which case the host handler
// never sees it. Whoever sets Out sets Tagged when the reply names its
// request (a memcached frame's request ID, a DNS query's ID), so the
// client can match it in any order: a flush may then send that client's
// replies longest first (buildTrains). An untagged reply keeps its
// client's replies in arrival order: raw ASCII memcached names nothing,
// and Paxos replies, which are all one size, fold into one train in
// arrival order anyway.
type BatchItem struct {
	In      []byte
	Src     netip.AddrPort
	Scratch *[]byte
	Out     []byte
	Served  bool
	Tagged  bool
}

// BatchHandler is implemented by handlers that can amortize per-request
// work across a whole batch — one virtual-clock read, one flush of
// shared counters — instead of paying it per datagram. A handler serves
// a batch's items in order, so each gets the reply it would get on its
// own. When the engine's handler implements it, the engine calls
// HandleBatch with every host-bound datagram of a batch; otherwise it
// falls back to per-datagram Handler/SourceHandler calls. Like Handler,
// implementations are called concurrently from different shard workers
// and each call must only touch the items it was given.
type BatchHandler interface {
	HandleBatch(items []*BatchItem)
}

// BatchFastPath is the batch form of FastPath: the offload tier is
// offered a whole batch at once so it can check its epoch and take its
// locks once per batch (nictier.KVSTier). Items it consumes are marked
// Served (with Out set when a reply should go out); the rest fall
// through to the host handler untouched.
type BatchFastPath interface {
	TryHandleBatch(items []*BatchItem)
}

// rxBatch is the most datagrams a shard reads per ReadBatch and txBatch
// the most replies it sends per WriteBatch. Each in-flight receive slot
// pins one MaxDatagram-sized pooled buffer, so batched-mode overload
// memory is Sockets*rxBatch*MaxDatagram (doc.go has the whole bound).
const rxBatch, txBatch = 32, 32

// readerShard is the shard index of the single reader's batchState: no
// shard's, so processRead hands every datagram it reads to its shard's
// queue and handles none itself.
const readerShard = -1

// NewBatchedConns builds an engine in per-shard-socket batched mode:
// conns[i] becomes shard i's socket (normally a SO_REUSEPORT group from
// netio.ListenReusePortGroup, all bound to one address) and bcs[i], which
// wraps it, shard i's transport — netio.NewBatchConn, or
// netio.NewUringConn where ProbeUring passes, so the engine itself stays
// transport-agnostic behind the BatchConn seam. Each shard reads its own
// batches, handles every datagram it read inline and flushes its replies
// in batches: the arrival socket is the shard. The kernel's reuseport
// 4-tuple hash pins each flow to one socket, so per-flow ordering holds
// with no cross-shard hop (one flow -> one socket -> one shard); writes
// from different flows meet only in the handler's own locks. A batched
// shard has no queue: Barrier fences its dispatches by epoch, and
// cfg.QueueDepth is ignored. cfg.Shards is forced to len(conns). Call
// Start/Run and Close exactly as with New.
func NewBatchedConns(conns []net.PacketConn, bcs []netio.BatchConn, h Handler, cfg Config) *Engine {
	if len(conns) == 0 {
		panic("dataplane: NewBatchedConns needs at least one socket")
	}
	if len(bcs) != len(conns) {
		panic("dataplane: NewBatchedConns needs one BatchConn per socket")
	}
	cfg.Shards = len(conns)
	e := newEngine(conns[0], h, cfg)
	e.batched = true
	e.bconns = bcs
	e.gsoTx = sendsTrains(bcs)
	return e
}

// sendsTrains is the reply-train decision, made once per engine: trains
// go out when every shard's rung hands UDP_SEGMENT to the kernel (mmsg,
// uring — the single rung would only unroll them) and ProbeGSO saw this
// kernel segment one. The INCOD_NO_GSOTX environment variable and the
// netio_fallback build tag fail the probe; there is no other opt-out.
func sendsTrains(bcs []netio.BatchConn) bool {
	for _, bc := range bcs {
		if b := netio.BackendOf(bc); b != "mmsg" && b != "uring" {
			return false
		}
	}
	return netio.ProbeGSO() == nil
}

// Batched reports whether the engine runs in per-shard-socket batched
// mode.
func (e *Engine) Batched() bool { return e.batched }

// Backend names the transport rung serving the engine: "uring", "mmsg"
// or "single" in batched mode, "" in single-reader mode (whose reader
// and workers take mmsg wherever the socket allows it, single elsewhere).
func (e *Engine) Backend() string {
	if !e.batched || len(e.bconns) == 0 {
		return ""
	}
	return netio.BackendOf(e.bconns[0])
}

// batchState is one shard worker's reusable I/O state: receive slots
// with their pooled buffers (batched mode only), the item vector handed
// to batch handlers, per-item reply buffers, and the pending TX batch.
// A single-reader worker is the same state without the receive side: it
// only drains its queue and sends through its own transmit conn. The
// single reader is the receive side alone (readLoop).
type batchState struct {
	e  *Engine
	s  *shard
	i  int
	bc netio.BatchConn

	rx     []netio.Message
	rxBufs []*[]byte

	items     []BatchItem
	ptrs      []*BatchItem
	host      []*BatchItem
	replyBufs [][]byte

	qpkts    []packet
	tx       []netio.Message
	txTagged []bool // txTagged[k]: tx[k]'s reply names its request

	// GSO train-building scratch (engine.gsoTx): txOut is the staged
	// send vector after coalescing, trainBufs the reused buffers train
	// payloads are copied into: one UDP_SEGMENT send needs its replies
	// back to back, and they are separate buffers, some aliasing receive
	// slots. Every rung is done with them when WriteBatch returns.
	txOut     []netio.Message
	txUsed    []bool
	txIdx     []int
	txByLen   []int
	trainBufs [][]byte
}

func (e *Engine) newBatchState(i int) *batchState {
	n := rxBatch
	w := &batchState{
		e: e, s: e.shards[i], i: i, bc: e.bconns[i],
		rx:        make([]netio.Message, n),
		rxBufs:    make([]*[]byte, n),
		items:     make([]BatchItem, n),
		ptrs:      make([]*BatchItem, 0, n),
		host:      make([]*BatchItem, 0, n),
		replyBufs: make([][]byte, n),
		qpkts:     make([]packet, 0, n),
		tx:        make([]netio.Message, 0, n),
		txTagged:  make([]bool, 0, n),
	}
	return w
}

// NewDriven builds a one-shard batched engine over bc that no goroutine
// serves: its caller drives it a Turn at a time, on its own clock
// (internal/simhost's is simnet's). It is never started: nothing is in
// flight between turns, so the caller's loop is the Barrier. Its receive
// slots are filled once, from one allocation, and never given up.
func NewDriven(bc netio.BatchConn, h Handler, cfg Config) *Engine {
	cfg.Shards = 1
	e := newEngine(nil, h, cfg)
	e.batched = true
	e.bconns = []netio.BatchConn{bc}
	e.gsoTx = sendsTrains(e.bconns)
	w, size := e.newBatchState(0), e.cfg.MaxDatagram
	slab := make([]byte, rxBatch*size)
	for j := range w.rxBufs {
		b := slab[j*size : (j+1)*size]
		w.rxBufs[j], w.rx[j].Buf = &b, b
	}
	e.bufsOut.Add(rxBatch)
	e.driven = w
	return e
}

// Turn runs one turn of an engine built by NewDriven: read one batch,
// serve it through the tier and the handler, flush the replies. It
// returns the items it served, in arrival order, valid until the next
// Turn, or the read's error, in which case it served nothing.
func (e *Engine) Turn() ([]*BatchItem, error) { return e.driven.turn() }

// batchWorker is shard i's goroutine in batched mode: it owns the
// shard's socket, so all traffic for the shard is serialized by one
// goroutine, preserving the per-flow ordering contract. Between turns it
// blocks in its socket's read with no deadline: an idle worker sleeps
// until a datagram arrives or Close sets the deadline that ends it.
func (e *Engine) batchWorker(i int) {
	defer e.workersWG.Done()
	if e.cfg.PinShards {
		// The thread must be locked before the affinity call or the Go
		// scheduler migrates the goroutine off the pinned thread. Locked
		// for good, the thread is the worker's own, and the socket is
		// told so: it may wait for datagrams on it (netio.BatchConn).
		// Shard i takes the (i mod n)-th CPU the process is allowed; with
		// fewer CPUs than shards, shards share them — still a win for
		// cache locality, though pinning buys the most when every shard
		// owns a whole core.
		runtime.LockOSThread()
		e.bconns[i].OwnThread()
		if _, err := netio.PinThread(i); err != nil {
			if i == 0 {
				log.Printf("%s: shard pinning unavailable, continuing unpinned: %v", e.cfg.Name, err)
			}
		} else {
			e.pinned.Store(true)
		}
	}
	w := e.newBatchState(i)
	for !e.closing.Load() {
		if _, err := w.turn(); err != nil {
			if e.closing.Load() {
				break
			}
			if errors.Is(err, net.ErrClosed) {
				log.Printf("%s: shard %d socket closed unexpectedly: %v", e.cfg.Name, i, err)
				break
			}
			if c := e.readErrs.Add(1); c&(c-1) == 0 {
				log.Printf("%s: transient read error (#%d, serving continues): %v", e.cfg.Name, c, err)
			}
		}
	}
	w.release()
}

// turn is one turn of a reading worker: top up the receive slots, read
// one batch and dispatch it (processRead). It returns the items a shard
// served, none for the single reader.
func (w *batchState) turn() ([]*BatchItem, error) {
	w.fillRx()
	n, err := w.bc.ReadBatch(w.rx)
	if err != nil {
		return nil, err
	}
	w.s.readBatches.Add(1)
	w.processRead(n)
	return w.ptrs, nil
}

// fillRx tops up receive slots whose buffers the single reader moved
// into a shard's queue since the last read.
func (w *batchState) fillRx() {
	for j := range w.rx {
		if w.rxBufs[j] == nil {
			bufp := w.e.getBuf()
			w.rxBufs[j] = bufp
			w.rx[j].Buf = (*bufp)[:w.e.cfg.MaxDatagram]
		}
	}
}

// processRead dispatches one received batch. A batched worker handles
// every datagram it read inline; the single reader (readerShard) hands
// each to its source's shard queue with buffer ownership.
func (w *batchState) processRead(n int) {
	e, s := w.e, w.s
	w.ptrs = w.ptrs[:0]
	for j := 0; j < n; j++ {
		m := &w.rx[j]
		if !m.Src.IsValid() {
			// A transport that cannot produce a source address (the
			// portable fallback over a custom conn) must not dispatch a
			// zero source. The slot keeps its buffer.
			if c := s.badSrc.Add(1); c&(c-1) == 0 {
				log.Printf("%s: dropped datagram with unusable source address (#%d)", e.cfg.Name, c)
			}
			continue
		}
		if w.i == readerShard {
			w.enqueue(j)
			continue
		}
		k := len(w.ptrs)
		it := &w.items[k]
		*it = BatchItem{In: m.Buf[:m.N], Src: m.Src, Scratch: &w.replyBufs[k]}
		w.ptrs = append(w.ptrs, it)
	}
	if k := len(w.ptrs); k > 0 {
		s.received.Add(uint64(k))
		w.processItems(w.ptrs)
	}
	w.flushTx()
}

// enqueue moves receive slot j's datagram into its shard's queue. A full
// queue drops it, and the buffer stays in the slot for the next read.
func (w *batchState) enqueue(j int) {
	m := &w.rx[j]
	target := w.e.shards[w.e.shardIndex(m.Src)]
	target.received.Add(1)
	select {
	case target.ch <- packet{buf: w.rxBufs[j], n: m.N, src: m.Src}:
		// Ownership moved to the queue; refill the slot next read.
		w.rxBufs[j] = nil
		w.rx[j].Buf = nil
	default:
		target.dropped.Add(1)
	}
}

// drainQueue is a single-reader shard worker's loop: it consumes the
// shard's queue in batches until Close closes it and it runs dry.
func (w *batchState) drainQueue() {
	for {
		pkts, closed := w.collectQueued()
		if len(pkts) > 0 {
			w.processQueued(pkts)
		}
		if closed {
			return
		}
	}
}

// collectQueued pulls up to rxBatch queued packets, blocking for the
// first; closed reports that the queue is closed and empty.
func (w *batchState) collectQueued() (pkts []packet, closed bool) {
	pkts = w.qpkts[:0]
	for len(pkts) < rxBatch {
		var pkt packet
		var ok bool
		if len(pkts) == 0 {
			pkt, ok = <-w.s.ch
		} else {
			select {
			case pkt, ok = <-w.s.ch:
			default:
				return pkts, false
			}
		}
		if !ok {
			return pkts, true
		}
		pkts = append(pkts, pkt)
	}
	return pkts, false
}

func (w *batchState) processQueued(pkts []packet) {
	w.ptrs = w.ptrs[:0]
	for k := range pkts {
		it := &w.items[k]
		*it = BatchItem{In: (*pkts[k].buf)[:pkts[k].n], Src: pkts[k].src, Scratch: &w.replyBufs[k]}
		w.ptrs = append(w.ptrs, it)
	}
	w.processItems(w.ptrs)
	// Flush before releasing the receive buffers: a handler may legally
	// return a reply aliasing its input, and a buffer back in the pool
	// can be recvmmsg'd into by another shard before sendmmsg runs.
	w.flushTx()
	for k := range pkts {
		w.e.putBuf(pkts[k].buf)
	}
}

// processItems runs one batch through the offload tier (batch form when
// the tier supports it) and the host handler (likewise), updating the
// shard counters once per batch and staging replies on the TX queue,
// each with its item's Tagged beside it. The shard's epoch is odd from
// before the tier is looked up until the dispatch returns: the span
// Barrier and ClearFastPath fence.
func (w *batchState) processItems(items []*BatchItem) {
	e, s := w.e, w.s
	if len(items) == 0 {
		return
	}
	s.epoch.Add(1)
	w.host = e.dispatch(e.enterTier(), items, w.host)
	s.epoch.Add(1)
	if served := len(items) - len(w.host); served > 0 {
		s.offloaded.Add(uint64(served))
	}
	s.handled.Add(uint64(len(items)))
	e.meter.Add(uint64(len(items)))
	for _, it := range items {
		if len(it.Out) > 0 {
			w.tx = append(w.tx, netio.Message{Buf: it.Out, N: len(it.Out), Src: it.Src})
			w.txTagged = append(w.txTagged, it.Tagged)
		}
	}
}

// flushTx sends the staged replies, at most txBatch per WriteBatch call.
// With GSO TX active the staged replies are first coalesced into
// destination-grouped UDP_SEGMENT trains; either way a message the
// socket rejects is counted and skipped, and the rest of the batch still
// goes out. Replies and write errors are both counted in wire datagrams,
// so a train of 32 segments is 32 replies, or 32 write errors when the
// socket refuses it, and the two always add up to the replies staged.
func (w *batchState) flushTx() {
	s := w.s
	out := w.tx
	if w.e.gsoTx && len(out) > 1 {
		out = w.buildTrains()
	}
	for off := 0; off < len(out); {
		end := min(off+txBatch, len(out))
		n, err := w.bc.WriteBatch(out[off:end])
		s.writeBatches.Add(1)
		sent := uint64(0)
		for k := off; k < off+n; k++ {
			sent += uint64(out[k].Segments())
		}
		s.replies.Add(sent)
		if err != nil && off+n < end {
			s.writeErrs.Add(uint64(out[off+n].Segments()))
			off += n + 1
			continue
		}
		off = end
	}
	w.tx = w.tx[:0]
	w.txTagged = w.txTagged[:0]
}

// buildTrains coalesces the staged replies into GSO trains: messages are
// grouped by destination (first-seen order across destinations, arrival
// order within one — the per-flow ordering contract, which tagged
// replies loosen, below), and each group is
// cut into equal-segment-size runs (cut). A shorter reply may close a
// train as its final segment; a longer one starts a new run, exactly the
// UDP_SEGMENT wire format. Runs of one message pass through untouched
// (no copy, no cmsg); longer runs are copied into reused train buffers,
// which also detaches them from the pooled receive buffers a reply may
// alias. The Paxos encoder produces fixed-size replies, so one client's
// whole batch of them folds into one train in arrival order. DNS
// answers differ in length (a hit carries an answer record its NXDOMAIN
// lacks) and ETC-size memcached replies differ more, so cut in arrival
// order every shorter reply would close a train; but a DNS reply and a
// framed memcached reply each name their request, so a destination
// whose replies are all tagged is cut longest first (byLength) when that
// takes fewer sends, and a client's equal-length replies still leave in
// arrival order.
func (w *batchState) buildTrains() []netio.Message {
	out := w.txOut[:0]
	used := w.txUsed[:0]
	for range w.tx {
		used = append(used, false)
	}
	trains := 0
	for i := range w.tx {
		if used[i] {
			continue
		}
		idx := append(w.txIdx[:0], i)
		for j := i + 1; j < len(w.tx); j++ {
			if !used[j] && w.tx[j].Src == w.tx[i].Src {
				idx = append(idx, j)
				used[j] = true
			}
		}
		w.txIdx = idx[:0]
		order := w.byLength(idx)
		for k := 0; k < len(order); {
			run, total := w.cut(order, k)
			if run == 1 {
				out = append(out, w.tx[order[k]])
				k++
				continue
			}
			buf := w.trainBuf(trains, total)
			trains++
			off := 0
			for r := 0; r < run; r++ {
				m := &w.tx[order[k+r]]
				off += copy(buf[off:], m.Buf[:m.N])
			}
			out = append(out, netio.Message{Buf: buf, N: total, Src: w.tx[i].Src, SegSize: w.tx[order[k]].N})
			k += run
		}
	}
	w.txOut = out[:0]
	w.txUsed = used[:0]
	return out
}

// cut returns how many of the replies order[k:] (indices into tx) the
// train starting at order[k] carries, and its bytes: the replies as long
// as the first, then at most one shorter, within the kernel's segment and
// byte bounds. A run of one goes out as a plain datagram.
func (w *batchState) cut(order []int, k int) (run, total int) {
	segSize := w.tx[order[k]].N
	run, total = 1, segSize
	for segSize > 0 && k+run < len(order) && run < netio.MaxTrainSegs {
		n := w.tx[order[k+run]].N
		if n > segSize || total+n > netio.MaxTrainBytes {
			break
		}
		total += n
		run++
		if n < segSize {
			break // a short segment legally ends the train
		}
	}
	return run, total
}

// sends is how many messages cut makes of order.
func (w *batchState) sends(order []int) int {
	n := 0
	for k := 0; k < len(order); n++ {
		run, _ := w.cut(order, k)
		k += run
	}
	return n
}

// byLength returns the order one destination's replies (idx, in arrival
// order) go out in: longest first when every one is tagged and that
// order cuts into fewer sends, else idx itself. Replies that all have one
// length are already in that order, so the scan for tags returns idx for
// them without sorting or counting sends. The sort is a stable
// insertion sort into a reused slice, so equal-length replies keep their
// arrival order and nothing allocates. The arrival cut can win where the
// kernel's byte or segment bound splits a run of long replies that
// arrival order had paired with short ones.
func (w *batchState) byLength(idx []int) []int {
	if len(idx) < 2 {
		return idx
	}
	n, oneLen := w.tx[idx[0]].N, true
	for _, i := range idx {
		if !w.txTagged[i] {
			return idx
		}
		oneLen = oneLen && w.tx[i].N == n
	}
	if oneLen {
		return idx
	}
	sorted := append(w.txByLen[:0], idx...)
	w.txByLen = sorted[:0]
	for a := 1; a < len(sorted); a++ {
		for b := a; b > 0 && w.tx[sorted[b-1]].N < w.tx[sorted[b]].N; b-- {
			sorted[b-1], sorted[b] = sorted[b], sorted[b-1]
		}
	}
	if w.sends(sorted) < w.sends(idx) {
		return sorted
	}
	return idx
}

// trainBuf returns the i'th reusable train buffer with at least n bytes.
func (w *batchState) trainBuf(i, n int) []byte {
	for len(w.trainBufs) <= i {
		w.trainBufs = append(w.trainBufs, nil)
	}
	if cap(w.trainBufs[i]) < n {
		w.trainBufs[i] = make([]byte, n)
	}
	return w.trainBufs[i][:n]
}

// release returns the worker's receive-slot buffers to the pool, so
// BuffersInFlight drains to zero on shutdown.
func (w *batchState) release() {
	for j, bufp := range w.rxBufs {
		if bufp != nil {
			w.e.putBuf(bufp)
			w.rxBufs[j] = nil
		}
	}
}
