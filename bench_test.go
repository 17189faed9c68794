package incod

// One benchmark per paper table/figure (regenerating the artifact each
// iteration), plus hot-path micro-benchmarks and the DESIGN.md ablations.
// Shape assertions live in the package test suites; these benches measure
// the cost of regeneration and report headline metrics.

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/experiments"
	"incod/internal/fpga"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/power"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tab := e.Run(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// Figure and table regenerators.

func BenchmarkFig3aKVS(b *testing.B)            { benchExperiment(b, "fig3a") }
func BenchmarkFig3bPaxos(b *testing.B)          { benchExperiment(b, "fig3b") }
func BenchmarkFig3cDNS(b *testing.B)            { benchExperiment(b, "fig3c") }
func BenchmarkFig4Gating(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5OnDemand(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6KVSTransition(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7PaxosTransition(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkASICPower(b *testing.B)           { benchExperiment(b, "asic") }
func BenchmarkOpsPerWatt(b *testing.B)          { benchExperiment(b, "opswatt") }
func BenchmarkXeonLoad(b *testing.B)            { benchExperiment(b, "xeon") }
func BenchmarkMemoryLatency(b *testing.B)       { benchExperiment(b, "memories") }
func BenchmarkCrossover(b *testing.B)           { benchExperiment(b, "crossover") }
func BenchmarkDynamoVariance(b *testing.B)      { benchExperiment(b, "dynamo") }
func BenchmarkGoogleTrace(b *testing.B)         { benchExperiment(b, "google") }
func BenchmarkToRSwitch(b *testing.B)           { benchExperiment(b, "tor") }
func BenchmarkLatencyTable(b *testing.B)        { benchExperiment(b, "latency") }
func BenchmarkPlacementGuide(b *testing.B)      { benchExperiment(b, "place") }
func BenchmarkInfraSensitivity(b *testing.B)    { benchExperiment(b, "infra") }
func BenchmarkIdleStrategies(b *testing.B)      { benchExperiment(b, "strategies") }
func BenchmarkModelValidation(b *testing.B)     { benchExperiment(b, "validate") }

// Dataplane serving-path benchmarks: the handler hot paths the live
// daemons run per datagram, single and batched, and the sharded store
// under parallel readers. scripts/bench.sh runs them and gates them
// inside one run: no B/op or allocs/op on any row, and each batched
// form's cost per request held against its single-datagram form's. What
// a request costs end to end is benchmark/'s to say, not these rows'.

// BenchmarkDataplaneKVSGet is the headline hot path: framed memcached
// GET through parse, sharded lookup and encode. It must report 0 B/op.
func BenchmarkDataplaneKVSGet(b *testing.B) {
	h := kvs.NewHandler(kvs.NewShardedStore(4, 0))
	scratch := make([]byte, 0, 4096)
	set := memcache.EncodeFrame(memcache.Frame{RequestID: 1, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpSet, Key: "key-123456", Value: []byte("value-abcdef")}))
	if _, ok := h.HandleDatagram(set, &scratch); !ok {
		b.Fatal("set failed")
	}
	get := memcache.EncodeFrame(memcache.Frame{RequestID: 2, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpGet, Key: "key-123456"}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, ok := h.HandleDatagram(get, &scratch); !ok || len(out) == 0 {
			b.Fatal("get failed")
		}
	}
}

// BenchmarkDataplaneBatchedKVSGet is the batch form of the headline hot
// path: 32 framed GETs per HandleBatch call, one virtual-clock read and
// one counter flush per batch. It must also report 0 B/op.
func BenchmarkDataplaneBatchedKVSGet(b *testing.B) {
	h := kvs.NewHandler(kvs.NewShardedStore(4, 0))
	scratch := make([]byte, 0, 4096)
	const batch = 32
	for i := 0; i < batch; i++ {
		set := memcache.EncodeFrame(memcache.Frame{RequestID: 1, Total: 1},
			memcache.EncodeRequest(memcache.Request{
				Op: memcache.OpSet, Key: fmt.Sprintf("key-%d", i), Value: []byte("value-abcdef")}))
		if _, ok := h.HandleDatagram(set, &scratch); !ok {
			b.Fatal("set failed")
		}
	}
	items := make([]*dataplane.BatchItem, batch)
	scratches := make([][]byte, batch)
	gets := make([][]byte, batch)
	for i := range items {
		scratches[i] = make([]byte, 0, 4096)
		gets[i] = memcache.EncodeFrame(memcache.Frame{RequestID: uint16(i), Total: 1},
			memcache.EncodeRequest(memcache.Request{Op: memcache.OpGet, Key: fmt.Sprintf("key-%d", i)}))
		items[i] = &dataplane.BatchItem{Scratch: &scratches[i]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for k := range items {
			items[k].In = gets[k]
			items[k].Out = nil
			items[k].Served = false
		}
		h.HandleBatch(items)
		if len(items[0].Out) == 0 {
			b.Fatal("batched get failed")
		}
	}
}

func BenchmarkDataplaneKVSSet(b *testing.B) {
	h := kvs.NewHandler(kvs.NewShardedStore(4, 0))
	scratch := make([]byte, 0, 4096)
	set := memcache.EncodeFrame(memcache.Frame{RequestID: 1, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpSet, Key: "key-123456", Value: []byte("value-abcdef")}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := h.HandleDatagram(set, &scratch); !ok {
			b.Fatal("set failed")
		}
	}
}

// BenchmarkDataplaneDNS is the DNS answer-hit hot path: QuestionView
// parse, fold-hash wire-cache lookup, one image copy plus an ID/flags
// patch. It must report 0 B/op.
func BenchmarkDataplaneDNS(b *testing.B) {
	zone := dns.NewZone()
	zone.PopulateSequential(64)
	h := dns.NewHandler(zone)
	scratch := make([]byte, 0, 4096)
	q, err := dns.Encode(dns.NewQuery(9, dns.SequentialName(42)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out, ok := h.HandleDatagram(q, &scratch); !ok || len(out) == 0 {
			b.Fatal("no answer")
		}
	}
}

// BenchmarkDataplaneDNSMixedCase is the same hit with a mixed-case name
// — the query shape that used to pay a strings.ToLower allocation per
// packet. It must also report 0 B/op.
func BenchmarkDataplaneDNSMixedCase(b *testing.B) {
	zone := dns.NewZone()
	zone.PopulateSequential(64)
	h := dns.NewHandler(zone)
	scratch := make([]byte, 0, 4096)
	q, err := dns.Encode(dns.NewQuery(9, "HOST42.Example.COM"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out, ok := h.HandleDatagram(q, &scratch); !ok || len(out) == 0 {
			b.Fatal("no answer")
		}
	}
}

// BenchmarkDataplaneBatchedDNS is the batch form of the DNS hit path: 32
// queries per HandleBatch call, counters flushed once per batch. 0 B/op.
func BenchmarkDataplaneBatchedDNS(b *testing.B) {
	benchDNSBatches(b, dns.SequentialName, func(zone *dns.Zone) func([]*dataplane.BatchItem) {
		return dns.NewHandler(zone).HandleBatch
	})
}

// BenchmarkDataplaneBatchedDNSNXDomain is the same batches of names the
// zone does not hold: the NXDOMAIN echo of the question. 0 B/op.
func BenchmarkDataplaneBatchedDNSNXDomain(b *testing.B) {
	benchDNSBatches(b, func(i int) string { return fmt.Sprintf("absent%d.example.com", i) },
		func(zone *dns.Zone) func([]*dataplane.BatchItem) { return dns.NewHandler(zone).HandleBatch })
}

// BenchmarkNICTierDNSHit is the batched hit answered by the warmed
// Emu-DNS tier instead of the host handler. 0 B/op.
func BenchmarkNICTierDNSHit(b *testing.B) {
	benchDNSBatches(b, dns.SequentialName, func(zone *dns.Zone) func([]*dataplane.BatchItem) {
		tier := nictier.NewDNS(zone)
		if err := tier.Stage(); err != nil {
			b.Fatal(err)
		}
		if err := tier.Warm(); err != nil {
			b.Fatal(err)
		}
		return tier.TryHandleBatch
	})
}

// benchDNSBatches serves 32 queries for name(0..31) per call of the
// batch form serve builds over a 64-record zone.
func benchDNSBatches(b *testing.B, name func(int) string, serve func(*dns.Zone) func([]*dataplane.BatchItem)) {
	zone := dns.NewZone()
	zone.PopulateSequential(64)
	handle := serve(zone)
	const batch = 32
	items := make([]*dataplane.BatchItem, batch)
	queries := make([][]byte, batch)
	for i := range items {
		q, err := dns.Encode(dns.NewQuery(uint16(i), name(i)))
		if err != nil {
			b.Fatal(err)
		}
		queries[i] = q
		scratch := make([]byte, 0, 4096)
		items[i] = &dataplane.BatchItem{Scratch: &scratch}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for k := range items {
			items[k].In = queries[k]
			items[k].Out = nil
			items[k].Served = false
		}
		handle(items)
		if len(items[0].Out) == 0 {
			b.Fatal("batched query failed")
		}
	}
}

// harnessZone is a zone file of n records in benchmark/'s format (its
// writeZone): fixed-width names, one address each, TTL 300.
func harnessZone(n int) []byte {
	var file []byte
	for i := 0; i < n; i++ {
		file = fmt.Appendf(file, "n%05d.zone.test 10.%d.%d.%d 300\n", i, byte(i>>16), byte(i>>8), byte(i))
	}
	return file
}

// BenchmarkDNSZoneParse10k is incdnsd's zone load: ParseZone over the
// bytes of a 10 000-record file. allocs/record is what a record costs
// beyond the index, answer array and arena sized up front;
// scripts/bench.sh holds it at 0.01.
func BenchmarkDNSZoneParse10k(b *testing.B) {
	const records = 10_000
	file := harnessZone(records)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zone, err := dns.ParseZone(file)
		if err != nil {
			b.Fatal(err)
		}
		if zone.Len() != records {
			b.Fatalf("parsed %d records, want %d", zone.Len(), records)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*records), "allocs/record")
}

// BenchmarkNICTierDNSWarm10k is the DNS tier's up-shift sync with a
// 10 000-record zone: a copy of the zone's index.
func BenchmarkNICTierDNSWarm10k(b *testing.B) {
	zone, err := dns.ParseZone(harnessZone(10_000))
	if err != nil {
		b.Fatal(err)
	}
	tier := nictier.NewDNS(zone)
	if err := tier.Stage(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tier.Warm(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataplanePaxosAcceptor2A is the acceptor's steady-state hot
// path: MsgView decode, one re-vote under the role mutex, AppendMsg of
// the 2B into the scratch buffer. It must report 0 B/op.
func BenchmarkDataplanePaxosAcceptor2A(b *testing.B) {
	a := paxos.NewLiveAcceptor(1, nil, func(string, paxos.Msg) {})
	scratch := make([]byte, 0, 4096)
	p2a := paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 7, Ballot: 3,
		ClientID: 1, Seq: 9, ClientAddr: "client-1:2345", Value: []byte("value-of-modest-size")})
	if _, ok := a.HandleDatagram(p2a, &scratch); !ok {
		b.Fatal("seed 2A failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, ok := a.HandleDatagram(p2a, &scratch); !ok || len(out) == 0 {
			b.Fatal("2A failed")
		}
	}
}

// BenchmarkDataplaneBatchedPaxosAcceptor is the batch form: 32 2As per
// HandleBatch call under one acquisition of the role mutex. 0 B/op.
func BenchmarkDataplaneBatchedPaxosAcceptor(b *testing.B) {
	a := paxos.NewLiveAcceptor(1, nil, func(string, paxos.Msg) {})
	scratch := make([]byte, 0, 4096)
	const batch = 32
	msgs := make([][]byte, batch)
	items := make([]*dataplane.BatchItem, batch)
	for i := range items {
		msgs[i] = paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2A, Instance: uint64(i + 1),
			Ballot: 3, Seq: uint64(i), ClientAddr: "client-1:2345", Value: []byte("value-of-modest-size")})
		if _, ok := a.HandleDatagram(msgs[i], &scratch); !ok {
			b.Fatal("seed failed")
		}
		s := make([]byte, 0, 1024)
		items[i] = &dataplane.BatchItem{Scratch: &s}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for k := range items {
			items[k].In = msgs[k]
			items[k].Out = nil
			items[k].Served = false
		}
		a.HandleBatch(items)
		if len(items[0].Out) == 0 {
			b.Fatal("batched 2A failed")
		}
	}
}

// voter returns an acceptor and a function that sends it a Phase 2A for
// an instance, shaped like benchmark/stream.go's: ballot 1, a client id
// and seq, a 16-byte value, no client address.
func voter() (*paxos.LiveAcceptor, func(inst uint64) bool) {
	a := paxos.NewLiveAcceptor(1, nil, func(string, paxos.Msg) {})
	scratch := make([]byte, 0, 4096)
	p2a := paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2A, Ballot: 1, ClientID: 1, Seq: 9,
		Value: []byte("0123456789abcdef")})
	return a, func(inst uint64) bool {
		binary.BigEndian.PutUint64(p2a[1:], inst) // the wire header's instance field
		out, ok := a.HandleDatagram(p2a, &scratch)
		return ok && len(out) > 0
	}
}

// BenchmarkPaxosAcceptorFresh is the vote that is 90 % of
// paxos_vote_default and all of steady-state Paxos: monotonically
// increasing instances. Every freshTable votes the table is replaced by
// an empty one, with the timer stopped, so a run of a few tables or more
// averages the same growth at any benchtime. The log and the index grow,
// so B/op is the table's amortised footprint per instance, not garbage;
// allocs/op must be 0.
func BenchmarkPaxosAcceptorFresh(b *testing.B) {
	const freshTable = 1 << 18 // the index ends at 2^19 slots, 8 MB
	_, vote := voter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%freshTable == 0 {
			b.StopTimer()
			_, vote = voter()
			b.StartTimer()
		}
		if !vote(uint64(i%freshTable + 1)) {
			b.Fatal("fresh 2A failed")
		}
	}
}

// BenchmarkPaxosAcceptorRevote is the other 10 % of paxos_vote_default:
// a Phase 2A re-sent for an instance 512–1536 behind the fresh frontier
// (benchmark/stream.go's lag and window), which TryVote answers without
// the role mutex, in a table of 1M instances. The frontier walks the
// table as a run's does. 0 B/op.
func BenchmarkPaxosAcceptorRevote(b *testing.B) {
	const instances, lag, window = 1 << 20, 512, 1024
	a, vote := voter()
	for inst := uint64(1); inst <= instances; inst++ {
		vote(inst)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front := lag + window + uint64(i)%(instances-lag-window)
		if !vote(front - lag - uint64(rng.Intn(window))) {
			b.Fatal("re-vote failed")
		}
	}
	b.StopTimer()
	if got := a.StatsCounters().Get("reannounce"); got != uint64(b.N) {
		b.Fatalf("%d of %d re-votes answered", got, b.N)
	}
}

// BenchmarkPaxosAcceptorSnapshot100k is the §9.2 state handoff (the
// tier's Warm: the clone of the table the host role hands off) of 100k
// voted instances: while it runs no copy of the state answers.
func BenchmarkPaxosAcceptorSnapshot100k(b *testing.B) {
	a, vote := voter()
	for inst := uint64(1); inst <= 100_000; inst++ {
		vote(inst)
	}
	table := a.BeginHandoff(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := table.Clone(); snap.Instances() != 100_000 {
			b.Fatalf("snapshot holds %d instances", snap.Instances())
		}
	}
}

// BenchmarkDataplaneShardedStore shows GET throughput scaling with the
// partition count under parallel load (run with -cpu to vary worker
// count). The measured path is the serving one — AppendGetHit's
// lock-free seqlock read plus reply encode — so ns/op here is the
// store-side cost of one served GET.
func BenchmarkDataplaneShardedStore(b *testing.B) {
	const keys = 4096
	keyBytes := make([][]byte, keys)
	for i := range keyBytes {
		keyBytes[i] = fmt.Appendf(nil, "key-%d", i)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			st := kvs.NewShardedStore(shards, 0)
			for i := range keyBytes {
				st.Set(string(keyBytes[i]), kvs.Entry{Value: []byte("v")})
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				scratch := make([]byte, 0, 256)
				i := 0
				for pb.Next() {
					out, ok := st.AppendGetHit(scratch[:0], keyBytes[i&(keys-1)], 0)
					if !ok {
						panic("bench: unexpected miss")
					}
					scratch = out
					i++
				}
			})
		})
	}
}

// Hot-path micro-benchmarks.

// BenchmarkMemcacheParseGet is the serving path's request decode: frame
// strip plus view parse into a reused RequestView. 0 B/op — the
// allocating ParseRequest is off the hot path.
func BenchmarkMemcacheParseGet(b *testing.B) {
	dg := memcache.EncodeFrame(memcache.Frame{RequestID: 1, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpGet, Key: "key-123456"}))
	var v memcache.RequestView
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, body, err := memcache.DecodeFrame(dg)
		if err != nil {
			b.Fatal(err)
		}
		if err := memcache.ParseRequestView(body, &v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaxosCodec(b *testing.B) {
	m := paxos.Msg{Type: paxos.MsgPhase2A, Instance: 1 << 30, Ballot: 7,
		ClientAddr: "client-0", Value: make([]byte, 64)}
	var v paxos.MsgView
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := paxos.DecodeView(paxos.Encode(m), &v); err != nil {
			b.Fatal(err)
		}
		_ = v.Msg()
	}
}

// BenchmarkPaxosCodecView is the serving path's codec round trip:
// AppendMsg into a reused buffer, DecodeView aliasing it. 0 B/op.
func BenchmarkPaxosCodecView(b *testing.B) {
	m := paxos.Msg{Type: paxos.MsgPhase2A, Instance: 1 << 30, Ballot: 7,
		ClientAddr: "client-0", Value: make([]byte, 64)}
	buf := make([]byte, 0, 256)
	var v paxos.MsgView
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = paxos.AppendMsg(buf[:0], m)
		if err := paxos.DecodeView(buf, &v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNSCodec(b *testing.B) {
	q, err := dns.Encode(dns.NewQuery(9, "host42.example.com"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dns.Decode(q, dns.MaxLabels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDNSQuestionView is the serving path's query parse: the
// zero-copy QuestionView over the datagram. 0 B/op.
func BenchmarkDNSQuestionView(b *testing.B) {
	q, err := dns.Encode(dns.NewQuery(9, "host42.example.com"))
	if err != nil {
		b.Fatal(err)
	}
	var v dns.QuestionView
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := dns.ParseQuestion(q, dns.MaxLabels, &v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorEvents(b *testing.B) {
	b.ReportAllocs()
	sim := simnet.New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			sim.Schedule(time.Microsecond, tick)
		}
	}
	sim.Schedule(time.Microsecond, tick)
	b.ResetTimer()
	sim.Run()
}

// Ablation benches for the DESIGN.md design choices. Each reports its
// headline quantity as a custom metric.

// Hysteresis (mirrored threshold pairs) vs a single threshold, on load
// oscillating inside the hysteresis band: flaps per simulated minute.
func BenchmarkAblationHysteresis(b *testing.B) {
	log.SetOutput(io.Discard) // one orchestrator log line per flap otherwise
	defer log.SetOutput(os.Stderr)
	run := func(toHostKpps float64) int {
		sim := simnet.New(1)
		const period = 50 * time.Millisecond
		// Load oscillates 80..120 kpps around the 100 kpps threshold.
		var total uint64
		sim.Every(period, func() {
			kpps := 80.0
			if int((sim.Now()-1).Seconds())%2 == 0 { // the second this tick closes
				kpps = 120
			}
			total += uint64(kpps * 1000 * period.Seconds())
		})
		orch, _ := simhost.Orchestrate(sim, period, daemon.ServiceConfig{
			Service: &core.FuncService{ServiceName: "x"},
			Policy: core.NewThresholdPolicy(core.NetworkControllerConfig{
				ToNetworkKpps: 100, ToNetworkWindow: 500 * time.Millisecond,
				ToHostKpps: toHostKpps, ToHostWindow: 500 * time.Millisecond,
			}),
		}, func() uint64 { return total })
		sim.RunFor(time.Minute)
		status, _ := orch.Status()
		return status.Shifts
	}
	var withHyst, without int
	for i := 0; i < b.N; i++ {
		withHyst = run(60)    // mirrored pair well below the up-threshold
		without = run(99.999) // effectively a single threshold
	}
	b.ReportMetric(float64(withHyst), "flaps/min(hysteresis)")
	b.ReportMetric(float64(without), "flaps/min(single-threshold)")
}

// Number of LaKe PEs vs service capacity and power.
func BenchmarkAblationPEs(b *testing.B) {
	for pes := 1; pes <= 5; pes++ {
		pes := pes
		b.Run(fmt.Sprintf("pes-%d", pes), func(b *testing.B) {
			var peak, watts float64
			for i := 0; i < b.N; i++ {
				board := newLakeBoard(pes)
				peak = board.PeakKpps()
				watts = board.CardWatts(1)
			}
			b.ReportMetric(peak, "peak-kpps")
			b.ReportMetric(watts, "card-watts")
		})
	}
}

// The three §9.2 idle strategies: keep-warm (instant shift, most power),
// the paper's reset-and-gate choice, and partial reconfiguration back to
// the plain NIC (least power, momentary traffic halt on shift).
func BenchmarkAblationIdleStrategy(b *testing.B) {
	var keepWarm, parked, reconf float64
	for i := 0; i < b.N; i++ {
		warm := newLakeBoard(5)
		warm.SetModuleActive(false)
		keepWarm = warm.CardWatts(0)
		cold := newLakeBoard(5)
		cold.SetModuleActive(false)
		cold.SetMemoryReset(true)
		cold.SetClockGating(true)
		parked = cold.CardWatts(0)
		nic := newLakeBoard(5)
		nic.Reprogram(fpga.ReferenceNIC)
		reconf = nic.CardWatts(0)
	}
	b.ReportMetric(keepWarm, "idle-watts(keep-warm)")
	b.ReportMetric(parked, "idle-watts(reset+gated)")
	b.ReportMetric(reconf, "idle-watts(partial-reconfig)")
	b.ReportMetric(float64(simhost.ReconfigHalt.Milliseconds()), "reconfig-halt-ms")
}

// Client-timeout tuning for the Paxos leader shift: stall vs timeout.
func BenchmarkAblationPaxosTimeout(b *testing.B) {
	for _, timeout := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond} {
		timeout := timeout
		b.Run(timeout.String(), func(b *testing.B) {
			var stall float64
			for i := 0; i < b.N; i++ {
				stall = measureShiftStall(timeout)
			}
			b.ReportMetric(stall, "stall-ms")
		})
	}
}

// measureShiftStall returns how long consensus throughput stays below half
// its pre-shift rate after a leader shift. (A lucky client whose decision
// was in flight at the shift can keep its closed loop alive, so the window
// degrades rather than reaching exactly zero; the duration still tracks
// the client timeout, the paper's Figure 7 observation.)
func measureShiftStall(timeout time.Duration) float64 {
	sim := simnet.New(7)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	dep := simhost.NewPaxos(net, simhost.PaxosConfig{Clients: 4})
	for _, c := range dep.Clients {
		c.RetryTimeout = timeout
		c.StartClosedLoop(1)
	}
	sim.Schedule(time.Second, func() { dep.ShiftLeader(dep.HWLeader) })
	var last uint64
	var preShift float64
	stall, run := 0.0, 0.0
	const interval = 10 * time.Millisecond
	for t := time.Duration(0); t < 2*time.Second; t += interval {
		sim.RunFor(interval)
		decided := dep.Learner.StatsCounters().Get("decided")
		rate := float64(decided - last)
		last = decided
		if sim.Now() <= simnet.Time(time.Second) {
			preShift = rate
			continue
		}
		if rate < preShift/2 {
			run += interval.Seconds() * 1000
			if run > stall {
				stall = run
			}
		} else {
			run = 0
		}
	}
	for _, c := range dep.Clients {
		c.Stop()
	}
	return stall
}

func newLakeBoard(pes int) *fpga.Board {
	b := fpga.NewBoard(fpga.LaKeDesign)
	b.SetActivePEs(pes)
	return b
}

// DPDK polling vs interrupt-driven software runtime: idle watts.
func BenchmarkAblationDPDKPolling(b *testing.B) {
	var dpdk, libp float64
	for i := 0; i < b.N; i++ {
		dpdk = power.DPDKLeader.Power(0)
		libp = power.LibpaxosLeader.Power(0)
	}
	b.ReportMetric(dpdk, "idle-watts(dpdk)")
	b.ReportMetric(libp, "idle-watts(libpaxos)")
}
