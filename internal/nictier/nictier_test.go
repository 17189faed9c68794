package nictier_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/simnet"
	"incod/internal/trafficgen"
)

func framedGet(id uint16, key string) []byte {
	return memcache.EncodeFrame(memcache.Frame{RequestID: id, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpGet, Key: key}))
}

func framedSet(id uint16, key, value string) []byte {
	return memcache.EncodeFrame(memcache.Frame{RequestID: id, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpSet, Key: key, Value: []byte(value)}))
}

func framedDelete(id uint16, key string) []byte {
	return memcache.EncodeFrame(memcache.Frame{RequestID: id, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpDelete, Key: key}))
}

// worker mimics one engine shard worker: offer to the tier first, fall
// through to the host handler — the dispatch order the engine uses.
func worker(t *testing.T, tier nictier.Tier, h *kvs.Handler, in []byte, scratch *[]byte) (out []byte, offloaded bool) {
	t.Helper()
	out, served, reply := tier.TryHandleDatagram(in, netip.AddrPort{}, scratch)
	if served {
		if !reply {
			return nil, true
		}
		return out, true
	}
	out, _ = h.HandleDatagram(in, scratch)
	return out, false
}

func parseFramedResponse(t *testing.T, out []byte) memcache.Response {
	t.Helper()
	_, body, err := memcache.DecodeFrame(out)
	if err != nil {
		t.Fatalf("reply frame: %v", err)
	}
	resp, err := memcache.ParseResponse(body)
	if err != nil {
		t.Fatalf("reply parse: %v", err)
	}
	return resp
}

func TestKVSTierLifecycle(t *testing.T) {
	store := kvs.NewShardedStore(2, 0)
	h := kvs.NewHandler(store)
	tier := nictier.NewKVS(h)
	scratch := make([]byte, 0, 64*1024)

	// Preload through the host handler, as a daemon would before a shift.
	for i := 0; i < 10; i++ {
		h.HandleDatagram(framedSet(1, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)), &scratch)
	}

	// Parked tier: everything falls through.
	out, offloaded := worker(t, tier, h, framedGet(2, "k3"), &scratch)
	if offloaded {
		t.Fatal("parked tier must not serve")
	}
	if resp := parseFramedResponse(t, out); !resp.Hit || string(resp.Value) != "v3" {
		t.Fatalf("host fall-through reply: %+v", resp)
	}

	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Warm(); err != nil {
		t.Fatal(err)
	}
	if got := tier.Counters().Get("warmed_entries"); got != 10 {
		t.Fatalf("warmed_entries = %d, want 10", got)
	}

	// Warm tier serves GET hits itself, framed and raw ASCII alike.
	out, offloaded = worker(t, tier, h, framedGet(3, "k3"), &scratch)
	if !offloaded {
		t.Fatal("warm tier should serve the GET")
	}
	if resp := parseFramedResponse(t, out); !resp.Hit || string(resp.Value) != "v3" {
		t.Fatalf("tier reply: %+v", resp)
	}
	out, offloaded = worker(t, tier, h, []byte("get k4\r\n"), &scratch)
	if !offloaded {
		t.Fatal("warm tier should serve the raw ASCII GET")
	}
	if resp, err := memcache.ParseResponse(out); err != nil || !resp.Hit || string(resp.Value) != "v4" {
		t.Fatalf("raw tier reply: %+v err %v", resp, err)
	}
	if tier.HitRatio() <= 0 {
		t.Fatal("hit ratio should be positive")
	}

	// SET write-through: tier updates its cache, host stays authoritative
	// and replies; the next GET serves the new value from the tier.
	out, offloaded = worker(t, tier, h, framedSet(4, "k3", "v3-new"), &scratch)
	if offloaded {
		t.Fatal("SET must fall through to the host store of record")
	}
	if resp := parseFramedResponse(t, out); resp.Status != memcache.StatusStored {
		t.Fatalf("set reply: %+v", resp)
	}
	out, offloaded = worker(t, tier, h, framedGet(5, "k3"), &scratch)
	if !offloaded {
		t.Fatal("tier should serve the updated key")
	}
	if resp := parseFramedResponse(t, out); string(resp.Value) != "v3-new" {
		t.Fatalf("tier must serve the written-through value, got %q", resp.Value)
	}
	if e, ok := store.GetString("k3", simnet.Time(0)); !ok || string(e.Value) != "v3-new" {
		t.Fatalf("store of record: %+v ok=%v", e, ok)
	}

	// DELETE invalidates the cache; the GET then misses to the host.
	worker(t, tier, h, framedDelete(6, "k3"), &scratch)
	out, offloaded = worker(t, tier, h, framedGet(7, "k3"), &scratch)
	if offloaded {
		t.Fatal("deleted key must not be served from the tier")
	}
	if resp := parseFramedResponse(t, out); resp.Hit {
		t.Fatalf("deleted key must miss, got %+v", resp)
	}

	// Multi-key gets punt to the host.
	out, offloaded = worker(t, tier, h, framedGet(8, "k1 k2"), &scratch)
	if offloaded {
		t.Fatal("multiget must fall through")
	}
	if resp := parseFramedResponse(t, out); !resp.Hit || len(resp.Items) != 2 {
		t.Fatalf("multiget host reply: %+v", resp)
	}

	// Park flushes state: back to full fall-through.
	if err := tier.Park(); err != nil {
		t.Fatal(err)
	}
	if _, offloaded = worker(t, tier, h, framedGet(9, "k4"), &scratch); offloaded {
		t.Fatal("parked tier must not serve")
	}
	if n := tier.Len(); n != 0 {
		t.Fatalf("park must flush the table, still holds %d entries", n)
	}
}

// A delete racing the warm-up's bulk snapshot must never be resurrected:
// a key deleted while Warm runs may be missing from the cache (a host
// round trip) but must not be served with the old value.
func TestKVSTierWarmDeleteRace(t *testing.T) {
	store := kvs.NewShardedStore(4, 0)
	h := kvs.NewHandler(store)
	tier := nictier.NewKVS(h)
	scratch := make([]byte, 0, 64*1024)

	const n = 20000
	for i := 0; i < n; i++ {
		store.Set(fmt.Sprintf("k%d", i), kvs.Entry{Value: []byte("v")})
	}
	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := tier.Warm(); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		sc := make([]byte, 0, 64*1024)
		for i := 0; i < n; i += 2 {
			// The worker order: tier write-through, then host handler.
			in := framedDelete(uint16(i), fmt.Sprintf("k%d", i))
			if _, served, _ := tier.TryHandleDatagram(in, netip.AddrPort{}, &sc); served {
				t.Error("delete must fall through")
				return
			}
			h.HandleDatagram(in, &sc)
		}
	}()
	wg.Wait()

	for i := 0; i < n; i += 2 {
		in := framedGet(uint16(i), fmt.Sprintf("k%d", i))
		out, served, _ := tier.TryHandleDatagram(in, netip.AddrPort{}, &scratch)
		if served {
			t.Fatalf("k%d: deleted key resurrected by warm-up: %q", i, out)
		}
	}
}

// Two flows write the same keys on different engine shards, each in the
// worker order (tier write-through, then host). Whatever the
// interleaving, once both are done the lit tier must answer every key
// exactly as the host store holds it: the same hit or miss and the same
// value.
func TestKVSTierCrossFlowWrites(t *testing.T) {
	h, tier := warmKVSTier(t, func(*kvs.ShardedStore) {})
	const keys, rounds = 8, 2000
	key := func(i int) string { return fmt.Sprintf("shared-%d", i) }
	scratch := make([]byte, 0, 4096)
	for r := 0; r < rounds; r++ {
		var ops [2][][]byte
		for g := range ops {
			for i := 0; i < keys; i++ {
				if (r+g+i)%3 == 0 {
					ops[g] = append(ops[g], framedDelete(uint16(i), key(i)))
				} else {
					ops[g] = append(ops[g], framedSet(uint16(i), key(i), fmt.Sprintf("flow%d-round%d", g, r)))
				}
			}
		}
		var start, wg sync.WaitGroup
		start.Add(1)
		for g := range ops {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := make([]byte, 0, 4096)
				start.Wait()
				for _, in := range ops[g] {
					worker(t, tier, h, in, &sc)
				}
			}()
		}
		start.Done()
		wg.Wait()
		now := simnet.Time(time.Since(h.Epoch()))
		for i := 0; i < keys; i++ {
			want, ok := h.Store().GetString(key(i), now)
			out, served, _ := tier.TryHandleDatagram(framedGet(uint16(i), key(i)), netip.AddrPort{}, &scratch)
			if served != ok {
				t.Fatalf("round %d, %s: tier hit=%v, host hit=%v", r, key(i), served, ok)
			}
			if !served {
				continue
			}
			if got := parseFramedResponse(t, out).Value; !bytes.Equal(got, want.Value) {
				t.Fatalf("round %d, %s: tier serves %q, host holds %q", r, key(i), got, want.Value)
			}
		}
	}
}

// A tier whose table survives parking (simhost's KeepWarm skips Stage and
// Park) must not keep serving a value the host overwrote while it was
// parked: Warm installs only absent keys, so the table has to have seen
// the overwrite.
func TestKVSTierKeepWarmServesHostOverwrite(t *testing.T) {
	store := kvs.NewShardedStore(2, 0)
	store.Set("k", kvs.Entry{Value: []byte("v1")})
	h := kvs.NewHandler(store)
	tier := nictier.NewKVS(h)
	if err := tier.Warm(); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, 4096)
	if out, _ := h.HandleDatagram(framedSet(1, "k", "v2"), &scratch); parseFramedResponse(t, out).Status != memcache.StatusStored {
		t.Fatalf("host SET: %q", out)
	}
	if err := tier.Warm(); err != nil {
		t.Fatal(err)
	}
	out, served, _ := tier.TryHandleDatagram(framedGet(2, "k"), netip.AddrPort{}, &scratch)
	if !served {
		t.Fatal("warmed tier missed a resident key")
	}
	if got := parseFramedResponse(t, out).Value; string(got) != "v2" {
		t.Fatalf("tier serves %q after the host overwrote it with v2", got)
	}
}

func TestDNSTier(t *testing.T) {
	zone := dns.NewZone()
	zone.PopulateSequential(8)
	tier := nictier.NewDNS(zone)
	scratch := make([]byte, 0, 4096)

	q, err := dns.Encode(dns.NewQuery(7, dns.SequentialName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, served, _ := tier.TryHandleDatagram(q, netip.AddrPort{}, &scratch); served {
		t.Fatal("unwarmed tier must fall through")
	}

	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Warm(); err != nil {
		t.Fatal(err)
	}
	if got := tier.Counters().Get("synced_records"); got != 8 {
		t.Fatalf("synced_records = %d, want 8", got)
	}

	out, served, reply := tier.TryHandleDatagram(q, netip.AddrPort{}, &scratch)
	if !served || !reply {
		t.Fatal("warm tier should answer the A query")
	}
	m, err := dns.Decode(out, 0)
	if err != nil || !m.HasAnswer || m.ID != 7 || m.Addr != [4]byte{10, 0, 0, 3} {
		t.Fatalf("tier answer: %+v err %v", m, err)
	}
	if !m.Authority {
		t.Fatal("tier answers must be authoritative")
	}

	// Unknown name: authoritative NXDOMAIN from the tier (§3.3).
	q2, _ := dns.Encode(dns.NewQuery(8, "nowhere.example.com"))
	out, served, _ = tier.TryHandleDatagram(q2, netip.AddrPort{}, &scratch)
	if !served {
		t.Fatal("tier should answer NXDOMAIN itself")
	}
	if m, err = dns.Decode(out, 0); err != nil || m.RCode != dns.RCodeNXDomain {
		t.Fatalf("nxdomain: %+v err %v", m, err)
	}

	// Non-A questions punt to the host software.
	mx := dns.NewQuery(9, dns.SequentialName(1))
	mx.QType = 15
	q3, _ := dns.Encode(mx)
	if _, served, _ = tier.TryHandleDatagram(q3, netip.AddrPort{}, &scratch); served {
		t.Fatal("non-A questions must fall through")
	}

	if err := tier.Park(); err != nil {
		t.Fatal(err)
	}
	if _, served, _ = tier.TryHandleDatagram(q, netip.AddrPort{}, &scratch); served {
		t.Fatal("parked tier must fall through")
	}
}

func TestPaxosTierHandoff(t *testing.T) {
	var mu sync.Mutex
	fanout := map[string][]paxos.Msg{}
	send := func(to string, m paxos.Msg) {
		mu.Lock()
		fanout[to] = append(fanout[to], m)
		mu.Unlock()
	}
	host := paxos.NewLiveAcceptor(3, []string{"learner-1"}, send)
	scratch := make([]byte, 0, 4096)

	// The host role votes on instance 1 before any shift.
	p2a := paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 1, Ballot: 5,
		ClientID: 9, Seq: 42, Value: []byte("cmd")})
	out, ok := host.HandleDatagram(p2a, &scratch)
	if !ok {
		t.Fatal("host must answer the 2A")
	}
	if m, err := decodePaxos(out); err != nil || m.Type != paxos.MsgPhase2B || m.VBallot != 5 {
		t.Fatalf("host vote: %+v err %v", m, err)
	}

	tier := nictier.NewPaxosAcceptor(host)
	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	// Before the handoff the tier has no state and must fall through.
	p1a := paxos.Encode(paxos.Msg{Type: paxos.MsgPhase1A, Instance: 1, Ballot: 6})
	if _, served, _ := tier.TryHandleDatagram(p1a, netip.AddrPort{}, &scratch); served {
		t.Fatal("unwarmed tier must fall through")
	}
	if err := tier.Warm(); err != nil {
		t.Fatal(err)
	}
	if got := tier.Counters().Get("handoff_instances"); got != 1 {
		t.Fatalf("handoff_instances = %d, want 1", got)
	}
	// The table's size follows the state: on the card now, not on the host.
	if c, h := tier.StatsCounters(), host.StatsCounters(); c.Get("instances") != 1 || c.Get("log_bytes") == 0 || h.Get("instances") != 0 {
		t.Fatalf("after Warm: tier %v, host %v", c.Snapshot(), h.Snapshot())
	}

	// The tier's 1B for instance 1 must carry the host-made vote.
	out, served, reply := tier.TryHandleDatagram(p1a, netip.AddrPort{}, &scratch)
	if !served || !reply {
		t.Fatal("warm tier should serve the 1A")
	}
	m, err := decodePaxos(out)
	if err != nil || m.Type != paxos.MsgPhase1B || m.VBallot != 5 || string(m.Value) != "cmd" {
		t.Fatalf("tier 1B must carry the handed-off vote: %+v err %v", m, err)
	}
	if m.NodeID != 3 {
		t.Fatalf("tier must keep the acceptor identity, got node %d", m.NodeID)
	}

	// A straggler dispatched to the host is delegated to the tier's copy.
	out, ok = host.HandleDatagram(p1a, &scratch)
	if !ok {
		t.Fatal("host must delegate the straggler")
	}
	if m, err = decodePaxos(out); err != nil || m.VBallot != 5 {
		t.Fatalf("delegated 1B: %+v err %v", m, err)
	}

	// A vote made on the tier fans out to the learners...
	p2a2 := paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 2, Ballot: 6, Value: []byte("c2")})
	if _, served, _ = tier.TryHandleDatagram(p2a2, netip.AddrPort{}, &scratch); !served {
		t.Fatal("warm tier should serve the 2A")
	}
	mu.Lock()
	learnerVotes := len(fanout["learner-1"])
	mu.Unlock()
	if learnerVotes < 2 { // one host vote + one tier vote
		t.Fatalf("learner fan-out = %d votes, want >= 2", learnerVotes)
	}

	// ...and survives the shift back: after Park the host's 1B for
	// instance 2 reflects the tier-made vote.
	if err := tier.Park(); err != nil {
		t.Fatal(err)
	}
	p1a2 := paxos.Encode(paxos.Msg{Type: paxos.MsgPhase1A, Instance: 2, Ballot: 7})
	out, ok = host.HandleDatagram(p1a2, &scratch)
	if !ok {
		t.Fatal("host must serve after the handback")
	}
	if m, err = decodePaxos(out); err != nil || m.VBallot != 6 || string(m.Value) != "c2" {
		t.Fatalf("handback lost the tier vote: %+v err %v", m, err)
	}
	if _, served, _ := tier.TryHandleDatagram(p1a2, netip.AddrPort{}, &scratch); served {
		t.Fatal("parked tier must fall through")
	}
}

// A promised overwrite on a settled instance works wherever the table
// lives: on the tier, and when the promise was made on the host and the
// handoff happens before the promised 2A arrives. The lookaside must miss
// from the promise until the overwrite republishes it, on both sides of
// the Clone. Readers keep re-voting throughout; run under -race.
func TestPaxosTierPromisedOverwrite(t *testing.T) {
	for _, promiseOnHost := range []bool{false, true} {
		host := paxos.NewLiveAcceptor(3, []string{"learner-1"}, func(string, paxos.Msg) {})
		tier := nictier.NewPaxosAcceptor(host)
		scratch := make([]byte, 0, 4096)
		onHost := func(m paxos.Msg) paxos.Msg {
			t.Helper()
			out, ok := host.HandleDatagram(paxos.Encode(m), &scratch)
			reply, err := decodePaxos(out)
			if !ok || err != nil {
				t.Fatalf("host gave no reply to %v (%v)", m.Type, err)
			}
			return reply
		}
		onTier := func(m paxos.Msg) paxos.Msg {
			t.Helper()
			out, served, _ := tier.TryHandleDatagram(paxos.Encode(m), netip.AddrPort{}, &scratch)
			reply, err := decodePaxos(out)
			if !served || err != nil {
				t.Fatalf("tier did not serve %v (%v)", m.Type, err)
			}
			return reply
		}
		prepare := paxos.Msg{Type: paxos.MsgPhase1A, Instance: 5, Ballot: 2}
		dup := paxos.Msg{Type: paxos.MsgPhase2A, Instance: 5, Ballot: 1, Value: []byte("dup")}

		onHost(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 5, Ballot: 1, Value: []byte("X")})
		if promiseOnHost {
			onHost(prepare)
		}
		if err := tier.Stage(); err != nil {
			t.Fatal(err)
		}
		if err := tier.Warm(); err != nil {
			t.Fatal(err)
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				in, buf := paxos.Encode(dup), make([]byte, 0, 1024)
				for !stop.Load() {
					out, served, _ := tier.TryHandleDatagram(in, netip.AddrPort{}, &buf)
					var v paxos.MsgView
					if !served || paxos.DecodeView(out, &v) != nil ||
						!(v.VBallot == 1 && string(v.Value) == "X" || v.VBallot == 2 && string(v.Value) == "Y") {
						t.Errorf("re-vote answered %+v", v)
						return
					}
				}
			}()
		}
		if !promiseOnHost {
			if m := onTier(prepare); m.VBallot != 1 || string(m.Value) != "X" {
				t.Fatalf("tier promise: %+v", m)
			}
		}
		if m := onTier(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 5, Ballot: 2, Value: []byte("Y")}); m.Type != paxos.MsgPhase2B || m.VBallot != 2 || string(m.Value) != "Y" {
			t.Fatalf("promiseOnHost=%v: promised 2A did not overwrite on the tier: %+v", promiseOnHost, m)
		}
		if m := onTier(dup); m.VBallot != 2 || string(m.Value) != "Y" {
			t.Fatalf("overwrite not republished on the tier: %+v", m)
		}
		stop.Store(true)
		wg.Wait()

		// The overwrite survives the handback.
		if err := tier.Park(); err != nil {
			t.Fatal(err)
		}
		if m := onHost(dup); m.VBallot != 2 || string(m.Value) != "Y" {
			t.Fatalf("handback lost the overwrite: %+v", m)
		}
	}
}

// benchKVSBatches is how every NICTierKVS row is measured, so rows
// compare: 32-datagram batches of mk's requests over 1024 resident keys
// through a batch entry point — the tier's, or the host handler's for
// the row scripts/bench.sh holds the tier's GET hit against. ns/op is
// per request; every row must report 0 B/op.
func benchKVSBatches(b *testing.B, mk func(id uint16, key string) []byte, entry func(*kvs.Handler, *nictier.KVSTier) func([]*dataplane.BatchItem), wantServed bool) {
	const keys, batch = 1024, 32
	h, tier := warmKVSTier(b, func(st *kvs.ShardedStore) {
		for i := 0; i < keys; i++ {
			st.Set(fmt.Sprintf("key-%d", i), kvs.Entry{Flags: 7, Value: []byte("payload-of-a-modest-size")})
		}
	})
	reqs := make([][]byte, keys)
	for i := range reqs {
		reqs[i] = mk(uint16(i), fmt.Sprintf("key-%d", i))
	}
	items := make([]*dataplane.BatchItem, batch)
	for i := range items {
		scratch := make([]byte, 0, 4096)
		items[i] = &dataplane.BatchItem{Scratch: &scratch}
	}
	fn := entry(h, tier)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for k, it := range items {
			it.In, it.Out, it.Served = reqs[(i+k)%keys], nil, false
		}
		fn(items)
		if items[0].Served != wantServed {
			b.Fatalf("served=%v, want %v", items[0].Served, wantServed)
		}
	}
}

func viaTier(_ *kvs.Handler, t *nictier.KVSTier) func([]*dataplane.BatchItem) {
	return t.TryHandleBatch
}

func viaHost(h *kvs.Handler, _ *nictier.KVSTier) func([]*dataplane.BatchItem) {
	return h.HandleBatch
}

func BenchmarkNICTierKVSGetHit(b *testing.B) { benchKVSBatches(b, framedGet, viaTier, true) }

// The same GETs answered by the host handler: the offload is honest only
// while the row above stays within 1.25x of this one (scripts/bench.sh).
func BenchmarkNICTierKVSHostGetHit(b *testing.B) { benchKVSBatches(b, framedGet, viaHost, false) }

// A GET the tier does not hold: what it adds to a request the host
// serves anyway.
func BenchmarkNICTierKVSMiss(b *testing.B) {
	benchKVSBatches(b, func(id uint16, key string) []byte { return framedGet(id, "absent-"+key) }, viaTier, false)
}

// The write-through half of a SET overwrite (the host half is
// BenchmarkDataplaneKVSSet): what a SET costs with the tier on.
func BenchmarkNICTierKVSSet(b *testing.B) {
	benchKVSBatches(b, func(id uint16, key string) []byte { return framedSet(id, key, "payload-of-a-modest-size") }, viaTier, false)
}

// One up-shift's bulk transfer with 100k entries resident (ns/op is the
// Warm alone), and the down-shift's Park beside it.
func BenchmarkNICTierKVSWarm100k(b *testing.B) {
	store := kvs.NewShardedStore(2, 0)
	for i := 0; i < 100_000; i++ {
		store.Set(fmt.Sprintf("key-%d", i), kvs.Entry{Value: []byte("payload-of-a-modest-size")})
	}
	tier := nictier.NewKVS(kvs.NewHandler(store))
	var park time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := tier.Stage(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := tier.Warm(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		t0 := time.Now()
		if err := tier.Park(); err != nil {
			b.Fatal(err)
		}
		park += time.Since(t0)
		b.StartTimer()
	}
	b.ReportMetric(float64(park.Microseconds())/float64(b.N), "park-us")
}

// What an entry costs in memory: a 100k-entry store of ETC-size values
// filled one SetBytes at a time, then warmed into a staged tier (ns/op is
// both). Each side reports the live heap it added per entry, after a GC,
// and its allocations per entry; scripts/bench.sh holds both
// allocs/entry at 0.01, which only the arenas' chunks and the tables fit
// under.
func BenchmarkNICTierKVSFillWarm100k(b *testing.B) {
	const n = 100_000
	etc := trafficgen.NewETC(rand.New(rand.NewSource(28)), n)
	keys, vals := make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "k%07d", i)
		vals[i] = bytes.Repeat([]byte{'v'}, etc.ValueSize())
	}
	var fill, warm struct{ bytes, allocs float64 }
	var before, after runtime.MemStats
	measure := func(ms *runtime.MemStats) {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(ms)
		b.StartTimer()
	}
	for i := 0; i < b.N; i++ {
		measure(&before)
		store := kvs.NewShardedStore(1, 0)
		for k := range keys {
			store.SetBytes(keys[k], kvs.Entry{Value: vals[k]})
		}
		measure(&after)
		fill.bytes += float64(after.HeapAlloc) - float64(before.HeapAlloc)
		fill.allocs += float64(after.Mallocs - before.Mallocs)
		tier := nictier.NewKVS(kvs.NewHandler(store))
		if err := tier.Stage(); err != nil {
			b.Fatal(err)
		}
		measure(&before)
		if err := tier.Warm(); err != nil {
			b.Fatal(err)
		}
		measure(&after)
		warm.bytes += float64(after.HeapAlloc) - float64(before.HeapAlloc)
		warm.allocs += float64(after.Mallocs - before.Mallocs)
		runtime.KeepAlive(store)
		runtime.KeepAlive(tier)
	}
	entries := float64(n * b.N)
	b.ReportMetric(fill.bytes/entries, "fill-B/entry")
	b.ReportMetric(fill.allocs/entries, "fill-allocs/entry")
	b.ReportMetric(warm.bytes/entries, "warm-B/entry")
	b.ReportMetric(warm.allocs/entries, "warm-allocs/entry")
}

// warmKVSTier returns a handler over a store preloaded by fill and its
// tier, staged and warmed.
func warmKVSTier(t testing.TB, fill func(*kvs.ShardedStore)) (*kvs.Handler, *nictier.KVSTier) {
	t.Helper()
	store := kvs.NewShardedStore(2, 0)
	fill(store)
	h := kvs.NewHandler(store)
	tier := nictier.NewKVS(h)
	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Warm(); err != nil {
		t.Fatal(err)
	}
	return h, tier
}

// Stage must clear the table itself, not trust that a Park ran first: a
// shift that failed after Stage is staged again without one.
func TestKVSTierStageDropsTable(t *testing.T) {
	h, tier := warmKVSTier(t, func(*kvs.ShardedStore) {})
	scratch := make([]byte, 0, 4096)
	worker(t, tier, h, framedSet(1, "k", "v"), &scratch)
	if _, offloaded := worker(t, tier, h, framedGet(2, "k"), &scratch); !offloaded {
		t.Fatal("written-through key should be served by the tier")
	}
	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	if n := tier.Len(); n != 0 {
		t.Fatalf("re-staged tier still holds %d entries", n)
	}
	if _, offloaded := worker(t, tier, h, framedGet(3, "k"), &scratch); offloaded {
		t.Fatal("re-staged tier served a key from before the Stage")
	}
}

// The acceptance bar for the fast path and the cost model the tier is
// sold on: on a warmed tier a GET hit, a SET overwrite's write-through
// and a DELETE allocate nothing, through the batch entry point as well
// as the per-datagram one. A write then goes to the host, as in the
// engine, whose store writes it through to the table again (the mirror):
// that costs nothing either.
func TestKVSTierHotPathsZeroAlloc(t *testing.T) {
	const n = 512 // DELETEs consume one resident key per run
	key := func(i int) string { return fmt.Sprintf("key-%03d", i) }
	h, tier := warmKVSTier(t, func(st *kvs.ShardedStore) {
		for i := 0; i < n; i++ {
			st.Set(key(i), kvs.Entry{Flags: 7, Value: []byte("payload-of-a-modest-size")})
		}
	})
	dels := make([][]byte, n)
	for i := range dels {
		dels[i] = framedDelete(uint16(i), key(i))
	}
	scratch := make([]byte, 0, 4096)
	item := &dataplane.BatchItem{Scratch: &scratch}
	items := []*dataplane.BatchItem{item}
	deleted := 0
	for _, tc := range []struct {
		name   string
		ins    [][]byte // taken in turn, one per run
		served bool
	}{
		{"GET hit", [][]byte{framedGet(1, key(n-1))}, true},
		{"SET overwrite", [][]byte{framedSet(2, key(n-1), "payload-of-another-size-altogether")}, false},
		{"DELETE", dels, false},
	} {
		run := 0
		next := func() []byte { run++; return tc.ins[(run-1)%len(tc.ins)] }
		if a := testing.AllocsPerRun(100, func() {
			in := next()
			if _, served, _ := tier.TryHandleDatagram(in, netip.AddrPort{}, &scratch); served != tc.served {
				t.Fatalf("%s: served=%v", tc.name, served)
			} else if !served {
				h.HandleDatagram(in, &scratch)
			}
		}); a != 0 {
			t.Errorf("%s via TryHandleDatagram allocates %.1f per op, want 0", tc.name, a)
		}
		if a := testing.AllocsPerRun(100, func() {
			*item = dataplane.BatchItem{In: next(), Scratch: &scratch}
			if tier.TryHandleBatch(items); item.Served != tc.served {
				t.Fatalf("%s: batch served=%v", tc.name, item.Served)
			} else if !item.Served {
				h.HandleBatch(items)
			}
		}); a != 0 {
			t.Errorf("%s via TryHandleBatch allocates %.1f per op, want 0", tc.name, a)
		}
		if tc.name == "DELETE" {
			deleted = run
		}
	}
	if got := tier.Len(); deleted == 0 || deleted >= n || got != n-deleted {
		t.Fatalf("tier holds %d entries after %d deletes of %d resident keys", got, deleted, n)
	}
}

// Whatever the tier serves must be byte for byte what the host would
// have sent: across the value lengths either side of the store's 8-byte
// word packing, across overwrites that keep the record's size class and
// ones that cross classes both ways, for entries installed by Warm and
// by write-through, framed and raw. An expired entry misses on both.
func TestKVSTierRepliesMatchHost(t *testing.T) {
	lengths := []int{0, 1, 7, 8, 9, 1400}
	// One key rewritten through every overwrite branch: grow into a larger
	// class, shrink and re-grow across classes, repack within one.
	rewrites := []int{0, 1, 7, 8, 9, 1400, 3, 700, 1400, 1399}
	value := func(n int) []byte { return bytes.Repeat([]byte{'a' + byte(n%26)}, n) }
	fill := func(st *kvs.ShardedStore) {
		for _, n := range lengths {
			st.Set(fmt.Sprintf("warm-%d", n), kvs.Entry{Flags: uint32(n), Value: value(n)})
		}
		st.Set("expired", kvs.Entry{Value: []byte("stale"), Expires: 1}) // 1 ns after the epoch
	}
	for _, framed := range []bool{true, false} {
		wrap := func(id uint16, r memcache.Request) []byte {
			if body := memcache.EncodeRequest(r); !framed {
				return body
			} else {
				return memcache.EncodeFrame(memcache.Frame{RequestID: id, Total: 1}, body)
			}
		}
		h, tier := warmKVSTier(t, fill)
		ref := kvs.NewHandler(kvs.NewShardedStore(2, 0)) // the same traffic with no tier
		fill(ref.Store())
		scratch, refScratch := make([]byte, 0, 4096), make([]byte, 0, 4096)
		// both sends in to the tiered stack and to the bare host and
		// requires identical replies; it reports whether the tier served.
		both := func(in []byte) bool {
			t.Helper()
			got, offloaded := worker(t, tier, h, in, &scratch)
			want, _ := ref.HandleDatagram(in, &refScratch)
			if !bytes.Equal(got, want) {
				t.Fatalf("framed=%v %q:\n tier stack replied %q\n bare host replied %q", framed, in[:min(len(in), 40)], got, want)
			}
			return offloaded
		}
		for _, n := range lengths {
			if !both(wrap(1, memcache.Request{Op: memcache.OpGet, Key: fmt.Sprintf("warm-%d", n)})) {
				t.Fatalf("framed=%v: warmed %d-byte value not served by the tier", framed, n)
			}
		}
		for i, n := range rewrites {
			both(wrap(uint16(2+i), memcache.Request{Op: memcache.OpSet, Key: "rewritten", Flags: uint32(i), Value: value(n)}))
			if !both(wrap(uint16(2+i), memcache.Request{Op: memcache.OpGet, Key: "rewritten"})) {
				t.Fatalf("framed=%v: rewrite %d (%d bytes) not served by the tier", framed, i, n)
			}
		}
		if both(wrap(99, memcache.Request{Op: memcache.OpGet, Key: "expired"})) {
			t.Fatalf("framed=%v: tier served an expired entry", framed)
		}
	}
}

// Nothing DRAM-scale may be allocated before a shift warms the tier:
// building, staging and parking it on an empty store is a few small
// tables (guards the 128 MB preallocated L2 coming back).
func TestKVSTierIdleFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // one 4 KB table per P
	h := kvs.NewHandler(kvs.NewShardedStore(2, 0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tier := nictier.NewKVS(h)
	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Park(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewKVS+Stage+Park allocated %d bytes, want < 64 KB", got)
	}
}

// decodePaxos is paxos.DecodeView materialized into a standalone Msg.
func decodePaxos(b []byte) (paxos.Msg, error) {
	var v paxos.MsgView
	if err := paxos.DecodeView(b, &v); err != nil {
		return paxos.Msg{}, err
	}
	return v.Msg(), nil
}
