package main

import (
	"io"
	"log"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"time"

	"incod/internal/chaos"
	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// Direct-call timings of the code that has no seam to decorate: codecs,
// stores, handlers and tiers, each over a seeded request stream of its
// own protocol, plus the shift machinery with 100k keys resident. They
// run in this process while no daemon is up, with GOMAXPROCS set to the
// server's so GOMAXPROCS-sized structures match the daemon's.

const (
	microOps    = 200_000
	microRounds = 5
	microBatch  = 32
)

var microSink int

// perOp runs fn over n operations microRounds times and returns the
// median round's nanoseconds per operation.
func perOp(n int, fn func()) float64 {
	var rounds []float64
	for r := 0; r < microRounds; r++ {
		start := time.Now()
		fn()
		rounds = append(rounds, float64(time.Since(start))/float64(n))
	}
	return median(rounds)
}

// images generates n request datagrams of spec's stream.
func images(spec *workloadSpec, seed int64, n int) ([][]byte, []slot) {
	st := newStream(spec, seed, 0, 1)
	out, slots := make([][]byte, n), make([]slot, n)
	for i := range out {
		out[i] = st.next(nil, uint16(i), &slots[i])
	}
	return out, slots
}

// batcher feeds datagrams to a batch call in engine-sized batches with
// per-item reply buffers, as the batched engine does.
type batcher struct {
	items []dataplane.BatchItem
	ptrs  []*dataplane.BatchItem
	bufs  [][]byte
}

func newBatcher() *batcher {
	b := &batcher{items: make([]dataplane.BatchItem, microBatch), bufs: make([][]byte, microBatch)}
	for i := range b.bufs {
		b.bufs[i] = make([]byte, 0, 2048)
	}
	return b
}

var microSrc = netip.MustParseAddrPort("127.0.0.1:9")

func (b *batcher) run(dgrams [][]byte, call func([]*dataplane.BatchItem)) {
	for off := 0; off < len(dgrams); off += microBatch {
		end := min(off+microBatch, len(dgrams))
		b.ptrs = b.ptrs[:0]
		for k, d := range dgrams[off:end] {
			b.items[k] = dataplane.BatchItem{In: d, Src: microSrc, Scratch: &b.bufs[k]}
			b.ptrs = append(b.ptrs, &b.items[k])
		}
		call(b.ptrs)
	}
}

func filter(dgrams [][]byte, slots []slot, kind reqKind) [][]byte {
	var out [][]byte
	for i, d := range dgrams {
		if slots[i].kind == kind {
			out = append(out, d)
		}
	}
	return out
}

// microMetrics fills every direct-call metric into r.
func (c *runConfig) microMetrics(r *result) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(len(c.serverCPUs)))
	logTo := log.Writer()
	log.SetOutput(io.Discard) // the orchestrator and the chaos tiers log every shift
	defer log.SetOutput(logTo)
	set := r.set
	b := newBatcher()

	// --- memcache, kvs, the KVS tier ---
	mixed, _ := workloadByName("kvs_mixed_tier")
	reqs, slots := images(mixed, c.seed, microOps)
	gets, sets := filter(reqs, slots, kindGet), filter(reqs, slots, kindSet)

	set("memcache.frame_ns", perOp(len(reqs), func() {
		for _, d := range reqs {
			f, _, _ := memcache.DecodeFrame(d)
			microSink += int(f.RequestID)
		}
	}))
	var view memcache.RequestView
	set("memcache.parse_ns", perOp(len(reqs), func() {
		for _, d := range reqs {
			_ = memcache.ParseRequestView(d[memcache.FrameHeaderSize:], &view)
			microSink += len(view.Key)
		}
	}))
	val := make([]byte, kvsFixedSize)
	out := make([]byte, 0, 2048)
	key := []byte("k0000042")
	set("memcache.encode_hit_ns", perOp(microOps, func() {
		for i := 0; i < microOps; i++ {
			out = memcache.AppendGetHit(out[:0], key, 0, val)
		}
		microSink += len(out)
	}))

	store := kvs.NewShardedStore(0, 0)
	store.EnableHotKeys(16)
	handler := kvs.NewHandler(store)
	st := newStream(mixed, c.seed, 0, 1)
	for k := uint64(0); k < kvsKeys; k++ {
		store.SetBytes(appendKey(nil, k), kvs.Entry{Value: st.appendValue(nil, k, 1)})
	}
	getKeys, setKeys, setVals := make([][]byte, len(gets)), make([][]byte, len(sets)), make([][]byte, len(sets))
	for i, d := range gets {
		_ = memcache.ParseRequestView(d[memcache.FrameHeaderSize:], &view)
		getKeys[i] = view.Key
	}
	for i, d := range sets {
		_ = memcache.ParseRequestView(d[memcache.FrameHeaderSize:], &view)
		setKeys[i], setVals[i] = view.Key, view.Value
	}
	now := simnet.Time(time.Second)
	set("kvs.get_ns", perOp(len(getKeys), func() {
		for _, k := range getKeys {
			out, _ = store.AppendGetHit(out[:0], k, now)
		}
		microSink += len(out)
	}))
	set("kvs.set_ns", perOp(len(setKeys), func() {
		for i, k := range setKeys {
			store.SetBytes(k, kvs.Entry{Value: setVals[i]})
		}
	}))
	set("kvs.handler_get_ns", perOp(len(gets), func() { b.run(gets, handler.HandleBatch) }))
	set("kvs.handler_set_ns", perOp(len(sets), func() { b.run(sets, handler.HandleBatch) }))
	set("kvs.hotkeys_ns", perOp(1000, func() {
		for i := 0; i < 1000; i++ {
			microSink += len(store.HotKeys(16))
		}
	}))

	// The shift lifecycle with the workloads' 100k keys resident, timed
	// through the same calls nictier.Service makes.
	var build, stage, warm, park []float64
	var tier *nictier.KVSTier
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		tier = nictier.NewKVS(handler)
		t1 := time.Now()
		_ = tier.Stage()
		t2 := time.Now()
		_ = tier.Warm()
		t3 := time.Now()
		if i < 2 {
			_ = tier.Park()
			park = append(park, float64(time.Since(t3))/1e6)
		}
		build = append(build, float64(t1.Sub(t0))/1e6)
		stage = append(stage, float64(t2.Sub(t1))/1e6)
		warm = append(warm, float64(t3.Sub(t2))/1e6)
	}
	set("nictier.kvs_build_ms", median(build))
	set("nictier.kvs_stage_ms", median(stage))
	set("nictier.kvs_warm_ms", median(warm))
	set("nictier.kvs_park_ms", median(park))
	set("nictier.kvs_warmed_entries", float64(tier.Counters().Snapshot()["warmed_entries"]))

	// tier is staged and warm here: hits, write-through, then misses on
	// keys no layer holds.
	set("nictier.kvs_hit_ns", perOp(len(gets), func() { b.run(gets, tier.TryHandleBatch) }))
	set("nictier.kvs_set_ns", perOp(len(sets), func() { b.run(sets, tier.TryHandleBatch) }))
	absent := make([][]byte, 0, len(gets))
	for i := range gets {
		absent = append(absent, appendGet(nil, uint16(i), uint64(kvsKeys+i)))
	}
	set("nictier.kvs_miss_ns", perOp(len(absent), func() { b.run(absent, tier.TryHandleBatch) }))

	// The engine's three shift calls, on a started engine with no traffic.
	{
		conn, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			return err
		}
		eng := dataplane.New(conn, handler, dataplane.Config{Name: "micro", Shards: len(c.serverCPUs)})
		eng.Start()
		var setfp, barrier, clearfp []float64
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			eng.SetFastPath(tier)
			t1 := time.Now()
			eng.Barrier()
			t2 := time.Now()
			eng.ClearFastPath()
			t3 := time.Now()
			setfp = append(setfp, float64(t1.Sub(t0))/1e3)
			barrier = append(barrier, float64(t2.Sub(t1))/1e3)
			clearfp = append(clearfp, float64(t3.Sub(t2))/1e3)
		}
		eng.Close()
		set("dataplane.setfastpath_us", median(setfp))
		set("dataplane.barrier_us", median(barrier))
		set("dataplane.clearfastpath_us", median(clearfp))
	}

	// --- dns and its tier ---
	dnsSpec, _ := workloadByName("dns_train_uring")
	queries, qslots := images(dnsSpec, c.seed, microOps)
	hits, nx := filter(queries, qslots, kindQuery), filter(queries, qslots, kindQueryNX)
	zone := dns.NewZone()
	for i := uint64(0); i < dnsNames; i++ {
		zone.Add(dnsName(i, true), dnsAddr(i), 300)
	}
	var qv dns.QuestionView
	set("dns.parse_ns", perOp(len(queries), func() {
		for _, q := range queries {
			_ = dns.ParseQuestion(q, 0, &qv)
			microSink += qv.End
		}
	}))
	dh := dns.NewHandler(zone)
	set("dns.handler_hit_ns", perOp(len(hits), func() { b.run(hits, dh.HandleBatch) }))
	set("dns.handler_nx_ns", perOp(len(nx), func() { b.run(nx, dh.HandleBatch) }))
	dt := nictier.NewDNS(zone)
	_ = dt.Stage()
	_ = dt.Warm()
	set("nictier.dns_hit_ns", perOp(len(hits), func() { b.run(hits, dt.TryHandleBatch) }))

	// --- paxos and its tier ---
	paxSpec, _ := workloadByName("paxos_vote_default")
	votes, vslots := images(paxSpec, c.seed, microOps)
	fresh := filter(votes, vslots, kindVote)
	var mv paxos.MsgView
	set("paxos.decode_ns", perOp(len(votes), func() {
		for _, v := range votes {
			_ = paxos.DecodeView(v, &mv)
			microSink += int(mv.Instance)
		}
	}))
	// A fresh vote creates state, so each round needs a new acceptor;
	// the round after it on the same acceptor is all re-votes.
	var acc *paxos.LiveAcceptor
	set("paxos.acceptor_fresh_ns", perOp(len(fresh), func() {
		acc = paxos.NewLiveAcceptor(0, nil, func(string, paxos.Msg) {})
		b.run(fresh, acc.HandleBatch)
	}))
	set("paxos.acceptor_revote_ns", perOp(len(fresh), func() { b.run(fresh, acc.HandleBatch) }))
	pt := nictier.NewPaxosAcceptor(paxos.NewLiveAcceptor(0, nil, func(string, paxos.Msg) {}))
	_ = pt.Stage()
	_ = pt.Warm()
	set("nictier.paxos_vote_ns", perOp(len(fresh), func() { b.run(fresh, pt.TryHandleBatch) }))

	// --- telemetry: what every packet or batch pays for being counted ---
	meter := telemetry.NewAtomicRateMeter(100*time.Millisecond, 10)
	set("telemetry.meter_add_ns", perOp(microOps, func() {
		for i := 0; i < microOps; i++ {
			meter.Add(1)
		}
	}))
	counter := telemetry.NewAtomicCounters().Handle("x")
	set("telemetry.counter_inc_ns", perOp(microOps, func() {
		for i := 0; i < microOps; i++ {
			counter.Add(1)
		}
	}))
	topk := telemetry.NewTopK(16)
	names := make([]string, 1024)
	hashes := make([]uint64, len(names))
	zipf := rand.NewZipf(rand.New(rand.NewSource(c.seed)), zipfS, 1, uint64(len(names)-1))
	for i := range names {
		names[i] = string(appendKey(nil, uint64(i)))
		hashes[i] = dataplane.HashString(names[i])
	}
	picks := make([]int, microOps)
	for i := range picks {
		picks[i] = int(zipf.Uint64())
	}
	set("telemetry.topk_observe_ns", perOp(microOps, func() {
		for _, p := range picks {
			topk.Observe(hashes[p], names[p])
		}
	}))

	// --- the orchestrator's sampling step ---
	orch := daemon.NewOrchestrator(0)
	{
		svc, err := orch.Register("micro", daemon.ServiceConfig{})
		if err != nil {
			return err
		}
		var handled uint64
		svc.UseCounter(func() uint64 { handled += 4000; return handled })
		at := time.Now()
		set("daemon.tick_us", perOp(1000, func() {
			for i := 0; i < 1000; i++ {
				at = at.Add(100 * time.Millisecond)
				orch.Tick(at)
			}
		})/1e3)
	}

	// --- the same handlers, tiers and orchestrator on the simnet substrate ---
	const chaosSeeds = 20
	t0 := time.Now()
	rep := chaos.Sweep(chaos.Properties(), chaosSeeds, chaos.Config{Quick: true}, nil)
	set("chaos.ms_per_seed", float64(time.Since(t0))/1e6/chaosSeeds)
	if !rep.OK() {
		r.note("chaos sweep reported %d violation(s)", len(rep.Violations))
	}
	return nil
}
