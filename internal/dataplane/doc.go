// Package dataplane is the shared UDP serving runtime behind the live
// daemons (inckvsd, incdnsd, incpaxosd). The paper's premise — services
// shift between host software and network hardware on demand — only pays
// off if the host path can absorb line-rate traffic, so this package
// provides one concurrent engine with two I/O modes.
//
// # Single-reader mode (New)
//
//   - one reader goroutine reads the socket through its own
//     netio.NewBatchConn: up to rxBatch datagrams per recvmmsg into
//     pooled buffers (sync.Pool, zero steady-state allocation), request
//     trains taken whole through UDP_GRO where its slots hold the
//     largest one (the default MaxDatagram does), as on a batched mmsg
//     socket. It hands each datagram to its shard's queue with the
//     buffer and runs no handler;
//   - N shard workers consume from per-shard queues. Dispatch hashes the
//     source address and port (SourceHash), which keeps per-flow ordering
//     while spreading flows across cores;
//   - a worker drains its queue through a batched shard's code, up to
//     rxBatch datagrams per handler batch, and flushes the replies
//     through its own netio.NewBatchConn over the socket: one sendmmsg
//     per flush on Linux, in UDP_SEGMENT trains wherever batched mode
//     sends them;
//   - handlers implement the small Handler interface and encode replies
//     into a per-worker scratch buffer, so the memcached GET hot path runs
//     with zero per-request heap allocations.
//
// This mode works over any net.PacketConn (tests, in-memory transports,
// non-Linux platforms); over anything but a Linux *net.UDPConn the
// reader takes the portable rung, one datagram per read. On Linux its
// reads amortize with the load: an incpaxosd acceptor under
// BENCHMARK.json's paxos_vote_default (loopback, two CPUs) ended its run
// at rx_per_read 6.4 with its request trains arriving whole (rx_trains,
// 32 datagrams each), while its paced slices, where requests trickle in
// one by one, read 1.1–1.3 datagrams per read. Writes are one sendmmsg
// per flush.
//
// # Batched per-shard-socket mode (NewBatchedConns)
//
// The software answer to the NIC's per-packet amortization: cut the
// syscalls-per-packet from 2 to 2/B. Each shard owns one socket of a
// SO_REUSEPORT group (netio.ListenReusePortGroup) and is its own reader:
// it recvmmsg's up to rxBatch datagrams per syscall straight into pooled
// buffers, handles them, and flushes the replies with one sendmmsg per
// txBatch. At those batches of 32 a full batch costs 2/32 = 0.0625
// syscalls per packet, and GET /v1/dataplane reports the achieved
// amortization (rx_per_read, tx_per_write).
//
// Dispatch in batched mode has one rule: the arrival socket is the
// shard. The kernel's reuseport 4-tuple hash pins each flow to one
// socket, so per-flow ordering holds with no cross-shard hop at all (one
// flow -> one socket -> one shard), preserving the fairness of
// processor-sharing service across flows. Writes from different flows to
// one piece of state meet in the handler's own locks: the KVS store's
// per-partition writer mutex, which also orders the offload tier's
// write-through (internal/nictier). A batched shard has no queue at all:
// Barrier is a fence on each shard's turn epoch (see Barrier), which
// needs nothing from a worker asleep in its read.
//
// How a batched worker waits. Between batches a worker blocks in its
// socket's read with no deadline; by default that is a park in the
// runtime netpoller, and an idle worker stays parked until a datagram
// comes or Close sets the one deadline the engine ever sets. With
// PinShards (-pin) the worker locks itself to its OS thread for good
// and tells its socket so, once. Both batched rungs then use the thread:
// directly after a read that returned datagrams, and only then, the next
// read waits for data by blocking that thread in the kernel — the mmsg
// rung on the socket for at most 100µs, the uring rung on its ring for
// at most 1ms — before falling back to the park. At a paced load nearly
// every datagram (or train) is its own wake-up, and the
// netpoller park of a thread-locked goroutine costs two thread hand-offs
// where this costs one kernel wake-up of the worker. That, more than the
// CPU affinity -pin also sets (shard i on the (i mod n)-th CPU the
// process is allowed), is what the flag buys: about a sixth of the
// server's CPU per request on the KVS workloads of BENCHMARK.json, and
// about as much on dns_train_uring. The price is bounded: a worker inside
// that wait holds its P in a syscall until sysmon retakes it, so there is
// at most one such wait per productive read, none longer than its rung's
// budget, and none on an idle socket — an idle pinned daemon holds no P
// and wakes no thread. The policy lives in netio; the engine's part is
// one call after LockOSThread. The single rung ignores it. Stats
// reports both ways of
// waiting, summed over the receiving sockets, as rx_thread_waits and
// rx_parks.
//
// Handlers that implement BatchHandler (and offload tiers implementing
// BatchFastPath) receive whole batches and amortize per-request work
// further: kvs.Handler reads the virtual clock and flushes its GET
// counters once per batch; nictier.KVSTier checks its epoch once per
// batch. Every handler and tier serves a batch's items in order, so
// per-flow order holds inside a batch too: a datagram gets the reply it
// would get if its flow's datagrams came one at a time.
//
// # Reply order
//
// Per-flow content order always holds: a reply's bytes are what serving
// its flow's datagrams one at a time would give. Wire order within one
// flush is kept as well, unless every reply staged for that client in
// the flush is tagged (BatchItem.Tagged: the reply names its request, as
// a memcached frame's request ID does, so the client matches it in any
// order). Such a client's replies may leave longest first, when that
// cuts them into fewer UDP_SEGMENT trains: ETC-size memcached replies
// differ in length, and a 32-reply flush of them takes about 12 sends
// instead of 20 (BenchmarkBuildTrains). One untagged reply — raw ASCII,
// a DNS answer, a Paxos message — keeps its client's flush in arrival
// order. Flushes leave in the order they were served, and an engine
// that sends no trains (the single rung, INCOD_NO_GSOTX, a simulated
// node's conn) keeps arrival order whatever the tags.
//
// # Driven on a virtual clock (NewDriven)
//
// A driven engine is one batched shard with no goroutine: its caller
// runs it one Turn at a time, each the batched worker's own — read a
// batch, offer it to the tier, hand the rest to the handler, flush the
// replies — and gets back the items it served. internal/simhost drives
// one per simulated node over a netio.BatchConn on simnet, so the paper
// figures and the chaos sweep run this package's batching, tier fence
// and counters on the virtual clock. Its receive slots are filled once,
// so its Stats show rxBatch buffers in flight for good.
//
// # Overload memory bound
//
// Every queued packet and every in-flight receive slot pins one
// MaxDatagram-sized pooled buffer, and an mmsg socket that takes
// request trains stages the rest of a read's trains in one buffer of its
// own, so the engine's overload memory is bounded by
//
//	Sockets*rxBatch*MaxDatagram + Sockets*rxBatch*MaxTrainBytes
//
// in batched mode, where nothing is queued, and by
//
//	Shards*(QueueDepth+rxBatch)*MaxDatagram + rxBatch*MaxDatagram
//	  + rxBatch*MaxTrainBytes
//
// in single-reader mode, where a worker holds at most the one batch it
// collected from its queue and the reader its rxBatch receive slots. The
// MaxTrainBytes terms count only mmsg sockets that take trains (gro_rx),
// which needs a MaxDatagram of at least netio.MaxTrainBytes; the uring
// rung splits trains out of its own provided buffers. When a
// single-reader shard's queue is full the datagram is dropped and
// counted, like a NIC ring overrun — backpressure never blocks the
// reader. Protocols with small datagrams (DNS) should pass their own
// MaxDatagram to shrink every term.
//
// # Shared across both modes
//
//   - an offload tier (FastPath / BatchFastPath) can be interposed on
//     dispatch before the host handler: the emulated NIC of
//     internal/nictier. SetFastPath atomically flips dispatch to the
//     tier, Barrier fences host work that predates the flip, and
//     ClearFastPath drains the tier without dropping in-flight requests
//     — the mechanics a live placement shift is built on. Both waits are
//     one fence, on each shard's turn epoch: odd while its worker is
//     inside a dispatch, from before the fast path is loaded until the
//     host handler returns, so whatever a dispatch did with the fast
//     path as it was before a flip has returned once every epoch seen
//     odd after the flip has moved. The packet path pays two adds to its
//     own shard's epoch per batch for it, and nothing more with a tier
//     installed;
//   - Close drains gracefully: the reader(s) stop, queued datagrams are
//     still handled and answered, then the socket(s) close. Daemons wire
//     this into daemon.OnShutdown;
//   - per-shard counters and a shared telemetry.AtomicRateMeter feed both
//     the /v1 control API (GET /v1/dataplane) and the on-demand
//     orchestrator, which samples the meter's monotonic total once per
//     tick rather than being called per packet. The packet path pays
//     one atomic add per batch for it; rate_kpps is worked out when it
//     is read.
//
// Transient socket errors (e.g. Linux delivering an async ICMP
// port-unreachable after a write to a vanished client) are counted and
// served through; the engine exits its read loop only when shutdown
// closed the socket. Datagrams whose source address cannot be derived
// (exotic transports) are counted (bad_source_drops) and dropped rather
// than dispatched with a zero source.
package dataplane
