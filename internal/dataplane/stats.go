package dataplane

import (
	"time"

	"incod/internal/netio"
	"incod/internal/telemetry"
)

// HotKeyReporter is implemented by handlers whose GET path feeds a
// hot-key sketch (kvs.Handler over a ShardedStore with hot-key sampling
// enabled); Snapshot folds the hottest entries into /v1/dataplane.
type HotKeyReporter interface {
	HotKeys(max int) []telemetry.HotKey
}

// hotKeysInSnapshot caps how many hot keys a snapshot carries.
const hotKeysInSnapshot = 16

// ShardStats is one worker's counters.
type ShardStats struct {
	Shard     int    `json:"shard"`
	Received  uint64 `json:"received"`
	Handled   uint64 `json:"handled"`
	Offloaded uint64 `json:"offloaded"`
	Replies   uint64 `json:"replies"`
	Dropped   uint64 `json:"dropped"`
	// WriteErrors counts replies the socket refused, in datagrams: a lost
	// train counts every segment it carried, as Replies counts a sent one.
	WriteErrors uint64 `json:"write_errors"`
	// BadSourceDrops counts datagrams dropped before dispatch because no
	// usable source address could be derived (distinct from queue
	// overruns). Only shard 0 accumulates these in single-reader mode.
	BadSourceDrops uint64 `json:"bad_source_drops,omitempty"`
	// ReadBatches counts recvmmsg syscalls (batched mode) and WriteBatches
	// sendmmsg syscalls (both modes); received/read_batches is the
	// measured RX syscall amortization for this shard.
	ReadBatches  uint64 `json:"read_batches,omitempty"`
	WriteBatches uint64 `json:"write_batches,omitempty"`
}

// Stats is a point-in-time snapshot of the engine, the payload of the
// control API's GET /v1/dataplane.
type Stats struct {
	// Mode is "single-reader" or "batched"; Sockets, RxBatch and TxBatch
	// describe the batched-mode I/O geometry (Sockets is 1 in
	// single-reader mode). Backend names the transport rung actually
	// serving a batched engine — "uring", "mmsg" or "single" — which is
	// how the control plane verifies a requested uring engine didn't
	// silently degrade. Pinned reports that shard workers are bound to
	// CPUs.
	Mode    string `json:"mode"`
	Backend string `json:"backend,omitempty"`
	Pinned  bool   `json:"pinned,omitempty"`
	Sockets int    `json:"sockets"`
	RxBatch int    `json:"rx_batch,omitempty"`
	TxBatch int    `json:"tx_batch,omitempty"`

	Shards         []ShardStats `json:"shards"`
	Received       uint64       `json:"received"`
	Handled        uint64       `json:"handled"`
	Offloaded      uint64       `json:"offloaded"`
	Replies        uint64       `json:"replies"`
	Dropped        uint64       `json:"dropped"`
	BadSourceDrops uint64       `json:"bad_source_drops"`
	WriteErrors    uint64       `json:"write_errors"`
	ReadErrors     uint64       `json:"read_errors"`
	// RateKpps is the handled rate over the last second as of this
	// snapshot. The engine's meter is worked out by its reader: a poller
	// that looks less often than once a second gets the mean since its
	// previous snapshot, and a daemon's first second reads low, not high.
	RateKpps float64           `json:"rate_kpps"`
	Handler  map[string]uint64 `json:"handler,omitempty"`

	// Syscall amortization: datagrams moved per recvmmsg (batched mode
	// only; the single reader reads one datagram per syscall) and per
	// sendmmsg syscall (both modes). 1.0 is the per-datagram cost; higher
	// is the batching win.
	ReadBatches  uint64  `json:"read_batches,omitempty"`
	WriteBatches uint64  `json:"write_batches,omitempty"`
	RxPerRead    float64 `json:"rx_per_read,omitempty"`
	TxPerWrite   float64 `json:"tx_per_write,omitempty"`

	// BuffersInFlight is the number of pooled receive buffers currently
	// outside the pool; it returns to zero on a drained engine, so a
	// persistent residue indicates a buffer leak. BuffersCached is the
	// subset parked in per-worker private free lists.
	BuffersInFlight int64 `json:"buffers_in_flight"`
	BuffersCached   int64 `json:"buffers_cached,omitempty"`

	// HotKeys is the handler's merged hot-key top-K (hottest first),
	// present when the handler samples its GET path.
	HotKeys []telemetry.HotKey `json:"hot_keys,omitempty"`

	// io_uring receive-ring telemetry, summed across the per-shard rings
	// (RingEntries/BufRingSize are per ring, identical for every shard).
	// Resubmits counts multishot recv re-arms, UringStarved the ENOBUFS
	// subset (the consumer fell a whole buffer ring behind), UringEnters
	// io_uring_enter syscalls across all shards. The uring rung sends
	// through sendmmsg like mmsg, so a failed send shows in WriteErrors
	// and the GSO counters below, not here.
	RingEntries  int    `json:"ring_entries,omitempty"`
	BufRingSize  int    `json:"bufring_size,omitempty"`
	Resubmits    uint64 `json:"resubmits,omitempty"`
	UringStarved uint64 `json:"uring_starved,omitempty"`
	UringEnters  uint64 `json:"uring_enters,omitempty"`

	// GSO TX telemetry, summed across the per-shard transports (in
	// single-reader mode, the workers' transmit conns). GSOTx reports
	// whether the engine builds reply trains, which it decides on its own:
	// every shard's rung sends UDP_SEGMENT (mmsg, uring) and
	// netio.ProbeGSO passed (INCOD_NO_GSOTX fails it). The
	// counters report what the transport actually did, on either rung's
	// one sendmmsg path: TxTrains UDP_SEGMENT sends the kernel took,
	// TxTrainSegs the datagrams they carried (TxSegsPerTrain the ratio),
	// GSOTxFallbacks trains unrolled per-datagram by a rung or kernel that
	// refused UDP_SEGMENT.
	GSOTx          bool    `json:"gso_tx"`
	TxTrains       uint64  `json:"tx_trains,omitempty"`
	TxTrainSegs    uint64  `json:"tx_train_segs,omitempty"`
	TxSegsPerTrain float64 `json:"tx_segs_per_train,omitempty"`
	GSOTxFallbacks uint64  `json:"gso_tx_fallbacks,omitempty"`

	// Receive-train telemetry, summed across the per-shard transports.
	// GRORx reports whether every shard's socket takes UDP_GRO trains: the
	// uring rung wherever the kernel does, the mmsg rung where in addition
	// MaxDatagram holds the largest train. RxTrains counts trains that
	// arrived coalesced (RxSegsPerTrain the datagrams each carried on
	// average), RxCutSegs datagrams of theirs never delivered because the
	// receive buffer cut the train. A paced sender's datagrams arrive one
	// by one, so only these say whether trains came in.
	GRORx          bool    `json:"gro_rx"`
	RxTrains       uint64  `json:"rx_trains,omitempty"`
	RxSegsPerTrain float64 `json:"rx_segs_per_train,omitempty"`
	RxCutSegs      uint64  `json:"rx_cut_segs,omitempty"`

	// Offload tier telemetry. TierActive reports whether a fast path is
	// installed right now; the remaining fields describe the most
	// recently installed tier (lifetime counters survive a shift back to
	// host so the control plane can still show what the tier did).
	TierActive bool              `json:"tier_active"`
	TierName   string            `json:"tier_name,omitempty"`
	Tier       map[string]uint64 `json:"tier,omitempty"`
	// No omitempty: a 0.0 hit ratio on an active tier is a real reading
	// (e.g. an NXDOMAIN-only DNS workload), not "no data".
	TierHitRatio   float64 `json:"tier_hit_ratio"`
	TierPowerWatts float64 `json:"tier_power_watts,omitempty"`
}

// Snapshot collects per-shard and aggregate counters, the live request
// rate, and — when the handler reports its own counters — a snapshot of
// those too. When an offload tier is (or was) installed, its counters,
// hit ratio and modeled power draw are folded in as well.
func (e *Engine) Snapshot() Stats {
	st := Stats{
		Mode:            "single-reader",
		Sockets:         1,
		Shards:          make([]ShardStats, len(e.shards)),
		ReadErrors:      e.readErrs.Load(),
		RateKpps:        e.meter.Rate(time.Since(e.born)) / 1000,
		BuffersInFlight: e.bufsOut.Load(),
	}
	if e.batched {
		st.Mode = "batched"
		st.Backend = e.Backend()
		st.Pinned = e.pinned.Load()
		st.Sockets = len(e.bconns)
		st.RxBatch = rxBatch
		st.TxBatch = txBatch
	}
	st.GRORx = e.batched // a single-reader engine's conns only transmit
	var rxSegs uint64
	for _, bc := range e.bconns {
		rs, ok := netio.RxStatsOf(bc)
		st.GRORx = st.GRORx && ok && rs.GRO
		st.RxTrains += rs.Trains
		rxSegs += rs.TrainSegs
		st.RxCutSegs += rs.CutSegs
		if us, ok := netio.UringStatsOf(bc); ok {
			st.RingEntries = us.RingEntries
			st.BufRingSize = us.BufRingSize
			st.Resubmits += us.Resubmits
			st.UringStarved += us.Starved
			st.UringEnters += us.Enters
		}
		if ts, ok := netio.TxStatsOf(bc); ok {
			st.TxTrains += ts.Trains
			st.TxTrainSegs += ts.TrainSegs
			st.GSOTxFallbacks += ts.Fallbacks
		}
	}
	st.GSOTx = e.gsoTx
	if st.TxTrains > 0 {
		st.TxSegsPerTrain = float64(st.TxTrainSegs) / float64(st.TxTrains)
	}
	if st.RxTrains > 0 {
		st.RxSegsPerTrain = float64(rxSegs) / float64(st.RxTrains)
	}
	for i, s := range e.shards {
		ss := ShardStats{
			Shard:          i,
			Received:       s.received.Load(),
			Handled:        s.handled.Load(),
			Offloaded:      s.offloaded.Load(),
			Replies:        s.replies.Load(),
			Dropped:        s.dropped.Load(),
			BadSourceDrops: s.badSrc.Load(),
			WriteErrors:    s.writeErrs.Load(),
			ReadBatches:    s.readBatches.Load(),
			WriteBatches:   s.writeBatches.Load(),
		}
		st.Shards[i] = ss
		st.Received += ss.Received
		st.Handled += ss.Handled
		st.Offloaded += ss.Offloaded
		st.Replies += ss.Replies
		st.Dropped += ss.Dropped
		st.BadSourceDrops += ss.BadSourceDrops
		st.WriteErrors += ss.WriteErrors
		st.ReadBatches += ss.ReadBatches
		st.WriteBatches += ss.WriteBatches
	}
	if st.ReadBatches > 0 {
		st.RxPerRead = float64(st.Received) / float64(st.ReadBatches)
	}
	if st.WriteBatches > 0 {
		st.TxPerWrite = float64(st.Replies) / float64(st.WriteBatches)
	}
	st.BuffersCached = e.bufsCached.Load()
	if r, ok := e.h.(StatsReporter); ok {
		st.Handler = r.StatsCounters().Snapshot()
	}
	if r, ok := e.h.(HotKeyReporter); ok {
		st.HotKeys = r.HotKeys(hotKeysInSnapshot)
	}
	st.TierActive = e.fastPath.Load() != nil
	if ref := e.lastTier.Load(); ref != nil {
		if n, ok := ref.fp.(interface{ Name() string }); ok {
			st.TierName = n.Name()
		}
		if r, ok := ref.fp.(StatsReporter); ok {
			st.Tier = r.StatsCounters().Snapshot()
		}
		if hr, ok := ref.fp.(interface{ HitRatio() float64 }); ok {
			st.TierHitRatio = hr.HitRatio()
		}
		if pw, ok := ref.fp.(interface{ PowerWatts() float64 }); ok {
			st.TierPowerWatts = pw.PowerWatts()
		}
	}
	return st
}
