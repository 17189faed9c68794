// Package netio is the batched socket layer under the dataplane. It
// offers one seam — BatchConn, reading and writing slices of Messages —
// over three transport rungs, each amortizing more per-packet cost than
// the one below:
//
//	single  one recvfrom/sendto per datagram through net.PacketConn.
//	        Portable everywhere; the correctness baseline every other
//	        rung must match byte for byte. Train-marked Messages are
//	        unrolled into per-segment sends.
//	mmsg    recvmmsg(2)/sendmmsg(2) via syscall.RawConn: many datagrams
//	        per syscall, with the runtime netpoller still parking the
//	        goroutine between batches (a reader that owns its thread
//	        may first wait on it, see below). A Message marked as a train
//	        (SegSize set) carries a UDP_SEGMENT cmsg on its slot of the
//	        sendmmsg vector, so one syscall can push a whole batch of
//	        trains. The socket takes UDP GRO when its receive slots hold
//	        the largest train, so a GSO sender's train arrives as one
//	        slot's worth that the conn splits back into per-datagram
//	        Messages (see Receive trains). Linux only; the default.
//	uring   a receive rung: one multishot RECVMSG stays armed on the
//	        socket, the kernel delivers each datagram into a registered
//	        provided-buffer ring and posts a completion, and a loaded
//	        socket is drained from mmap'd memory with no receive syscall
//	        at steady state. The socket always opts into UDP GRO, so a
//	        GSO sender's whole train lands as one coalesced completion,
//	        split the same way. Transmit is the mmsg rung's: the same
//	        sendmmsg path, trains and refused-train unroll included; the
//	        ring carries nothing but the receive. Linux >= 6.0 on
//	        amd64/arm64, raw syscalls, stdlib only.
//
// The paper's offload argument is that the NIC amortizes per-packet
// cost the host cannot; these rungs are the software end of that same
// curve — syscall-per-packet, then syscall-per-batch, then (under
// GSO/GRO) one kernel traversal per train in both directions.
//
// # Choosing a rung
//
// NewBatchConn returns mmsg on Linux and single elsewhere; callers
// treat it as "the best portable default". NewUringConn is explicit
// opt-in (the daemons' -engine uring). It needs Linux 6.0 or later, for
// multishot RECVMSG, and a ring that offers a provided-buffer ring, one
// mapping for the SQ and CQ rings (IORING_FEAT_SINGLE_MMAP) and a CQ
// eventfd the netpoller can wait on; a kernel short of any of them gets
// ErrUringUnsupported, with no older-kernel variant to fall into. So
// callers probe first (ProbeUring runs a cached loopback self-roundtrip
// through that exact path) and degrade to NewBatchConn when it errors.
// BackendOf names the rung a conn actually landed on ("single", "mmsg",
// "uring"), which the dataplane surfaces in /v1/dataplane stats — the
// reported backend is always the truth, not the request.
//
// # Reply trains: GSO on the transmit side
//
// A Message whose SegSize is in (0, N) is a train: one buffer holding a
// run of SegSize-byte datagrams back to back, the last possibly short.
// Every rung accepts trains through the same WriteBatch seam and must
// produce the identical per-datagram wire image; the rungs differ only
// in what the train costs. The mmsg and uring rungs attach a
// UDP_SEGMENT cmsg on the one sendmmsg path they share, so the kernel
// segments the run after one traversal of the stack; the single rung —
// and any kernel that refuses the cmsg (EINVAL/EOPNOTSUPP at send time,
// or a train longer than UDP_MAX_SEGMENTS) — unrolls the train into
// per-segment sends instead, so correctness never depends on kernel
// support.
//
// ProbeGSO reports (cached) whether the kernel can segment: it sends a
// real three-segment train over loopback and counts the datagrams that
// arrive. The batched dataplane engine builds reply trains wherever it
// passes and the shard's rung is mmsg or uring — on the single rung a
// train would only be unrolled again — so the probe is the decision,
// not a flag. The INCOD_NO_GSOTX environment variable fails the probe,
// and is the one way to get per-datagram replies from mmsg or uring on
// a capable kernel (CI's forced-fallback leg) — note it disables the
// probe, not the conns, which still coalesce any train-marked Message a
// capable kernel allows.
//
// TxStats (via TxStatsOf) is the truthful telemetry: Trains/TrainSegs
// count UDP_SEGMENT sends the kernel took, and Fallbacks counts trains
// that were unrolled per-datagram (a train longer than UDP_MAX_SEGMENTS
// is one). Every submitted train lands in exactly one of the two, so
// the /v1/dataplane counters (tx_trains, tx_segs_per_train,
// gso_tx_fallbacks) never overstate what the kernel did.
//
// # Receive trains: GRO on the receive side
//
// A socket with UDP_GRO set takes a GSO sender's train as one payload
// with its segment size in a cmsg: one queue entry, one wake-up and one
// copy per train. ReadBatch still returns one Message per datagram, so
// the BatchConn contract does not change; both batched rungs keep it
// through one trainSplitter.
//
// The splitter owns each received payload until its last datagram has
// left. It hands datagrams out in arrival order and stops when the
// caller's slots are full; the rest go out at the next ReadBatch,
// before any new syscall. A payload's buffer stays claimed until then,
// and a release hook hands it back: the uring rung recycles the
// provided buffer to the ring. A train longer than its buffer is cut by
// the kernel, so the rungs ask for the payload's full length (MSG_TRUNC
// on recvmmsg, payloadlen on an io_uring completion). The splitter then
// delivers only the segments that arrived whole and counts the rest in
// RxStats.CutSegs; no fragment is ever handed out as a datagram.
//
// Who takes trains is decided, not configured. The uring rung sets
// UDP_GRO wherever the kernel takes it. The mmsg rung sets it at its
// first ReadBatch, and only when every slot holds the largest train
// (MaxTrainBytes): the daemons' 64 KiB MaxDatagram does, incdnsd's 4 KiB
// does not, and with smaller slots the kernel keeps splitting trains
// before they are queued, so none is cut. recvmmsg still writes into the
// caller's slots, with one control buffer per slot. Entries before a
// read's first train stay where they are, so a paced reader's path is
// the plain one. From the first train on, entries are copied into one
// staging buffer the conn owns and handed out by the splitter: at most
// one read's slots × MaxTrainBytes per socket. RxStats (via RxStatsOf) reports
// whether the socket takes GRO and the trains, datagrams and cut
// datagrams it saw, as /v1/dataplane's gro_rx, rx_trains,
// rx_segs_per_train and rx_cut_segs.
//
// # Ownership rules (uring)
//
// The provided-buffer ring and its data slab belong to the conn: the
// kernel picks a buffer per completion, the conn parses it, queues it
// on the splitter, and the splitter copies the payload out into the
// caller's Message.Buf during ReadBatch and recycles the buffer. A
// starved ring (every buffer claimed by undelivered completions) kills
// the multishot with ENOBUFS; the conn re-arms it once delivery
// recycles buffers and counts the event in UringStats.Resubmits /
// Starved.
//
// Transmit is the same as mmsg: WriteBatch is the sendmmsg loop on the
// conn's own send lock, the caller's buffers are free the moment it
// returns, and a send error is returned to the caller.
//
// A uring conn supports one goroutine in ReadBatch concurrently with
// one in WriteBatch (a loadgen's receiver/sender split): WriteBatch
// never takes the ring mutex, and ReadBatch never holds it across a
// blocking wait.
//
// # How the reader waits (uring)
//
// An empty ReadBatch waits in one of two ways, by the rule below (see
// Reuseport groups, pinning and thread ownership): on the reader's own
// thread, in ppoll(2) on the ring fd, which is readable while the
// completion queue holds an entry; or parked on a registered CQ eventfd
// through the runtime netpoller, exactly how the other rungs wait for a
// socket. While the reader is awake, and through an on-thread wait, the
// eventfd is suppressed via IORING_CQ_EVENTFD_DISABLED (the NAPI trick),
// so senders never pay a wakeup per datagram they complete; the flag is
// re-enabled only on the edge of parking, with a final reap to close the
// race. A ring that cannot register the eventfd is not built.
//
// # Reuseport groups, pinning and thread ownership
//
// ListenReusePortGroup opens N UDP sockets bound to the same address
// with SO_REUSEPORT, so the kernel spreads inbound flows across them
// by 4-tuple hash. That is the substrate of the dataplane's
// per-shard-socket mode: one socket per shard worker, each draining
// its own batches, no shared reader to serialize behind. Off Linux a
// group of one socket still works; asking for more reports an error,
// which the daemons surface at startup.
//
// PinThread (sched_getaffinity, then sched_setaffinity) pins the
// calling OS thread to one of the CPUs its affinity mask already allows
// — index i takes the (i mod n)-th of those n, by id — so a daemon under
// taskset or a cpuset spreads its shards over exactly the CPUs it was
// given, whatever their ids. The dataplane uses it for per-shard
// affinity (-pin), which helps when shards <= cores — stable cache
// residency, no cross-CPU wakeup — and actively hurts when shards
// exceed cores, since pinned workers can no longer migrate off a
// contended CPU.
//
// A pinned worker has locked itself to its thread, and says so to its
// conn with BatchConn.OwnThread. That is the one fact a rung needs to
// choose how its reader waits, and the choice stays here. One rule
// covers both batched rungs: a reader waits on its own thread when it
// owns it and its last ReadBatch returned data, and parks in the
// netpoller otherwise. Parking a thread-locked goroutine is the dearest
// park Go has (its thread hands the P to another thread and is handed it
// back on arrival: two futex wakes, two thread switches), and the
// on-thread wait lets the kernel wake the worker itself. "Owned", because
// the same wait from an ordinary goroutine blocks an M its neighbours
// need (the in-process loopback benches halve); "after a productive
// read", because on an idle socket it keeps the P in a syscall while
// start-up work wants it (set-up's HTTP took half as long again in a
// uring variant that waited on the thread when idle too). Both counts
// are in RxStats, as ThreadWaits and Parks.
//
// The rungs differ only in how long the wait may last. The mmsg rung
// (see mmsgConn) waits at most ownWaitBudget, 100 µs, clipped to the
// read deadline: its paced KVS traffic arrives inside that, and waiting
// out the whole deadline cost set-up time and capacity on kvs_get_host
// more than it saved CPU. The uring rung waits until the read deadline,
// and not at all without one: the engine re-arms a 1 ms deadline before
// every read, and its paced trains arrive about 800 µs apart, so a
// 100 µs budget timed out and parked anyway. Either way Close and a
// deadline take effect late by at most one wait. (SO_BUSY_POLL, once a
// flag here, is gone: it polls a NIC queue loopback does not have, and
// nothing measured ever set it.)
//
// # Saturating the path: GSO at the endpoints
//
// A generator marks its trains per send through Message.SegSize, as the
// engine's reply path does (benchmark/'s generator is the one in use):
// one send carries a train, collapsing the dominant per-datagram send
// cost to per-train. Paired with a server socket that takes GRO (uring,
// or mmsg with train-sized slots) the whole loopback path — send
// syscall, socket delivery, wakeup, receive copy — runs once per train.
// Without GRO the kernel segments the train on delivery, and on loopback
// that work runs in the sender's softirq, on the sender's CPU. The
// server's reply side builds trains too (every batched engine on mmsg or
// uring where ProbeGSO passes), so the return direction matches.
//
// Everything here uses the standard library's syscall package only.
package netio
