package kvs

import (
	"bytes"
	"fmt"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incod/internal/dataplane"
	"incod/internal/memcache"
	"incod/internal/simnet"
)

func TestShardedStoreBasics(t *testing.T) {
	st := NewShardedStore(4, 0)
	if st.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", st.Shards())
	}
	st.Set("a", Entry{Flags: 1, Value: []byte("va")})
	st.Set("b", Entry{Flags: 2, Value: []byte("vb")})
	if e, ok := st.Get([]byte("a"), 0); !ok || string(e.Value) != "va" || e.Flags != 1 {
		t.Fatalf("Get a = %+v %v", e, ok)
	}
	if _, ok := st.Get([]byte("nope"), 0); ok {
		t.Fatal("phantom hit")
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if !st.Delete("a") || st.Delete("a") {
		t.Fatal("delete semantics")
	}
	if st.Hits() != 1 {
		t.Fatalf("merged hits = %d, want 1", st.Hits())
	}
}

func TestShardedStoreRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}} {
		if got := NewShardedStore(tc.in, 0).Shards(); got != tc.want {
			t.Fatalf("NewShardedStore(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := NewShardedStore(0, 0).Shards(); got < 1 {
		t.Fatalf("default shards = %d", got)
	}
}

func TestShardedStoreExpiry(t *testing.T) {
	st := NewShardedStore(2, 0)
	resp := st.Apply(memcache.Request{Op: memcache.OpSet, Key: "k", Exptime: 1, Value: []byte("v")}, 0)
	if resp.Status != memcache.StatusStored {
		t.Fatalf("set: %+v", resp)
	}
	if _, ok := st.Get([]byte("k"), simnet.Time(500_000_000)); !ok {
		t.Fatal("expired too early")
	}
	if _, ok := st.Get([]byte("k"), simnet.Time(2_000_000_000)); ok {
		t.Fatal("did not expire")
	}
	// Expired, not gone: the entry stays counted until a write removes it.
	if st.Len() != 1 {
		t.Fatalf("Len = %d after expiry, want 1", st.Len())
	}
}

func TestShardedStoreBoundSplitsAcrossShards(t *testing.T) {
	st := NewShardedStore(4, 64)
	evictions := 0
	for i := 0; i < 1000; i++ {
		before := st.Len()
		st.Set(fmt.Sprintf("key-%d", i), Entry{Value: []byte("v")})
		if st.Len() == before { // a fresh key that did not grow the store
			evictions++
		}
	}
	// Per-shard bound is ceil(64/4)=16, so the total stays near 64.
	if n := st.Len(); n > 64 {
		t.Fatalf("Len = %d, want <= 64", n)
	}
	if evictions == 0 {
		t.Fatal("no evictions under a bound")
	}
}

// A store made without a bound has the default one: distinct keys set
// with an exptime, which no read frees, stop at DefaultMaxEntries.
func TestShardedStoreDefaultBound(t *testing.T) {
	st := NewShardedStore(1, 0)
	key := make([]byte, 0, 8)
	for i := 0; i < DefaultMaxEntries+1000; i++ {
		key = strconv.AppendInt(key[:0], int64(i), 36)
		st.SetBytes(key, Entry{Expires: 1})
	}
	if n := st.Len(); n > DefaultMaxEntries {
		t.Fatalf("Len = %d after %d distinct keys, want <= %d", n, DefaultMaxEntries+1000, DefaultMaxEntries)
	}
}

func TestShardedStoreApplyMultiGet(t *testing.T) {
	st := NewShardedStore(4, 0)
	st.Set("a", Entry{Value: []byte("va")})
	st.Set("c", Entry{Value: []byte("vc")})
	resp := st.Apply(memcache.Request{Op: memcache.OpGet, Key: "a", Extra: []string{"b", "c"}}, 0)
	if !resp.Hit || len(resp.Items) != 2 {
		t.Fatalf("multiget: %+v", resp)
	}
	if resp.Items[0].Key != "a" || resp.Items[1].Key != "c" {
		t.Fatalf("multiget items: %+v", resp.Items)
	}
}

func TestShardedStoreConcurrent(t *testing.T) {
	st := NewShardedStore(8, 0)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("key-%d", i%100)
				st.Set(key, Entry{Value: []byte("v")})
				st.Get([]byte(key), 0)
				if i%10 == 0 {
					st.Delete(key)
				}
			}
		}(w)
	}
	wg.Wait()
	found := 0
	for i := 0; i < 100; i++ {
		if _, ok := st.Get([]byte(fmt.Sprintf("key-%d", i)), 0); ok {
			found++
		}
	}
	if st.Len() != found {
		t.Fatalf("Len = %d, but Get finds %d keys", st.Len(), found)
	}
}

// A mirror receives every write of its store inside the store's writer
// critical section: writers racing a FillFrom into the mirror leave the
// two stores holding the same keys and values. A disarmed mirror is not
// touched, and a mirrored overwrite allocates nothing.
func TestShardedStoreMirror(t *testing.T) {
	const keys, writers, minOps = 4096, 4, 2000
	key := func(i int) []byte { return fmt.Appendf(nil, "key-%d", i) }
	src := NewShardedStore(4, 0)
	for i := 0; i < keys; i++ {
		src.SetBytes(key(i), Entry{Value: []byte("preloaded")})
	}
	m := NewShardedStore(2, 0)
	src.SetMirror(m)

	var filled atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < minOps || !filled.Load(); r++ {
				k := key((r*7 + g*1031) % keys)
				if r%3 == 0 {
					src.DeleteBytes(k)
				} else {
					src.SetBytes(k, Entry{Flags: uint32(g), Value: fmt.Appendf(nil, "writer%d-op%d", g, r)})
				}
			}
		}()
	}
	m.FillFrom(src)
	filled.Store(true)
	wg.Wait()

	check := func(when string) {
		t.Helper()
		for i := 0; i < keys; i++ {
			want, inSrc := src.Get(key(i), 0)
			got, inMirror := m.Get(key(i), 0)
			if inSrc != inMirror || want.Flags != got.Flags || !bytes.Equal(want.Value, got.Value) {
				t.Fatalf("%s, key-%d: store %v %+v, mirror %v %+v", when, i, inSrc, want, inMirror, got)
			}
		}
		if src.Len() != m.Len() {
			t.Fatalf("%s: store holds %d entries, mirror %d", when, src.Len(), m.Len())
		}
	}
	check("after a fill racing 4 writers")

	src.SetBytes(key(1), Entry{Value: []byte("mirrored")})
	src.SetMirror(nil)
	before := m.Len()
	src.SetBytes(key(0), Entry{Value: []byte("unmirrored")})
	src.DeleteBytes(key(1))
	e0, _ := m.Get(key(0), 0)
	e1, ok1 := m.Get(key(1), 0)
	if string(e0.Value) == "unmirrored" || !ok1 || string(e1.Value) != "mirrored" || m.Len() != before {
		t.Fatalf("disarmed mirror was written: key-0 %q, key-1 %v %q, Len %d -> %d", e0.Value, ok1, e1.Value, before, m.Len())
	}

	src.SetMirror(m)
	k, e := key(2), Entry{Value: []byte("overwritten in place")}
	src.SetBytes(k, e)
	if a := testing.AllocsPerRun(100, func() { src.SetBytes(k, e) }); a != 0 {
		t.Errorf("mirrored SetBytes overwrite allocates %.1f per op, want 0", a)
	}
	if got, ok := m.Get(k, 0); !ok || !bytes.Equal(got.Value, e.Value) {
		t.Fatalf("mirror holds %+v %v after a mirrored overwrite", got, ok)
	}
}

func TestHandlerFramedAndRaw(t *testing.T) {
	h := NewHandler(NewShardedStore(4, 0))
	scratch := make([]byte, 0, 4096)

	// Framed set.
	set := memcache.EncodeFrame(memcache.Frame{RequestID: 7, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpSet, Key: "k", Flags: 3, Value: []byte("hello")}))
	out, ok := h.HandleDatagram(set, &scratch)
	if !ok {
		t.Fatal("no reply to set")
	}
	f, body, err := memcache.DecodeFrame(out)
	if err != nil || f.RequestID != 7 {
		t.Fatalf("set reply frame: %+v %v", f, err)
	}
	if resp, err := memcache.ParseResponse(body); err != nil || resp.Status != memcache.StatusStored {
		t.Fatalf("set reply: %+v %v", resp, err)
	}

	// Raw ASCII get of the same key.
	out, ok = h.HandleDatagram([]byte("get k\r\n"), &scratch)
	if !ok {
		t.Fatal("no reply to get")
	}
	resp, err := memcache.ParseResponse(out)
	if err != nil || !resp.Hit || string(resp.Value) != "hello" || resp.Flags != 3 {
		t.Fatalf("raw get reply: %+v %v", resp, err)
	}

	// Raw multi-key get exercises the fallback path.
	out, _ = h.HandleDatagram([]byte("get k nope\r\n"), &scratch)
	resp, err = memcache.ParseResponse(out)
	if err != nil || len(resp.Items) != 1 {
		t.Fatalf("multiget reply: %+v %v", resp, err)
	}

	// Garbage gets ERROR.
	out, _ = h.HandleDatagram([]byte("bogus\r\n"), &scratch)
	if string(out) != "ERROR\r\n" {
		t.Fatalf("garbage reply: %q", out)
	}

	snap := h.StatsCounters().Snapshot()
	if snap["sets"] != 1 || snap["hits"] != 2 || snap["misses"] != 1 || snap["malformed"] != 1 {
		t.Fatalf("handler counters: %v", snap)
	}
}

func TestHandlerGetHotPathDoesNotAllocate(t *testing.T) {
	h := NewHandler(NewShardedStore(4, 0))
	scratch := make([]byte, 0, 4096)
	set := memcache.EncodeFrame(memcache.Frame{RequestID: 1, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpSet, Key: "key-123", Value: []byte("value-xyz")}))
	if _, ok := h.HandleDatagram(set, &scratch); !ok {
		t.Fatal("set failed")
	}
	get := memcache.EncodeFrame(memcache.Frame{RequestID: 2, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpGet, Key: "key-123"}))
	allocs := testing.AllocsPerRun(200, func() {
		out, ok := h.HandleDatagram(get, &scratch)
		if !ok || len(out) == 0 {
			t.Fatal("get failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("GET hot path allocates %.1f per request, want 0", allocs)
	}
}

func TestHandlerSetOverwriteDoesNotAllocate(t *testing.T) {
	h := NewHandler(NewShardedStore(4, 0))
	scratch := make([]byte, 0, 4096)
	set := memcache.EncodeFrame(memcache.Frame{RequestID: 1, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpSet, Key: "key-123", Value: []byte("value-xyz")}))
	// The first SET inserts (key string + value copy); every later SET of
	// the same key overwrites the entry's value buffer in place.
	if _, ok := h.HandleDatagram(set, &scratch); !ok {
		t.Fatal("set failed")
	}
	allocs := testing.AllocsPerRun(200, func() {
		out, ok := h.HandleDatagram(set, &scratch)
		if !ok || len(out) == 0 {
			t.Fatal("set failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("SET overwrite hot path allocates %.1f per request, want 0", allocs)
	}
	if e, ok := h.Store().Get([]byte("key-123"), simnet.Time(time.Hour)); !ok || string(e.Value) != "value-xyz" {
		t.Fatalf("overwritten entry = %q, %v", e.Value, ok)
	}
}

func TestHandlerDeleteDoesNotAllocate(t *testing.T) {
	h := NewHandler(NewShardedStore(4, 0))
	scratch := make([]byte, 0, 4096)
	del := memcache.EncodeFrame(memcache.Frame{RequestID: 1, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpDelete, Key: "key-123"}))
	// Steady state here is the NOT_FOUND reply; the DELETED branch differs
	// only by which status it appends.
	allocs := testing.AllocsPerRun(200, func() {
		out, ok := h.HandleDatagram(del, &scratch)
		if !ok || len(out) == 0 {
			t.Fatal("delete failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("DELETE hot path allocates %.1f per request, want 0", allocs)
	}
	set := memcache.EncodeFrame(memcache.Frame{RequestID: 2, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpSet, Key: "key-123", Value: []byte("v")}))
	h.HandleDatagram(set, &scratch)
	out, _ := h.HandleDatagram(del, &scratch)
	if _, body, err := memcache.DecodeFrame(out); err != nil || string(body) != "DELETED\r\n" {
		t.Fatalf("delete of present key replied %q", out)
	}
}

// TestSetBytesOverwriteSemantics pins down the in-place value reuse:
// grow, shrink, caller-buffer independence, and flag/expiry refresh.
func TestSetBytesOverwriteSemantics(t *testing.T) {
	st := NewShardedStore(1, 0)
	key := []byte("k")
	st.SetBytes(key, Entry{Flags: 1, Value: []byte("short")})
	st.SetBytes(key, Entry{Flags: 2, Value: []byte("a-much-longer-value")})
	if e, ok := st.Get(key, 0); !ok || e.Flags != 2 || string(e.Value) != "a-much-longer-value" {
		t.Fatalf("after grow: %+v %v", e, ok)
	}
	st.SetBytes(key, Entry{Flags: 3, Value: []byte("tiny")})
	if e, ok := st.Get(key, 0); !ok || e.Flags != 3 || string(e.Value) != "tiny" {
		t.Fatalf("after shrink: %+v %v", e, ok)
	}
	// The store copies the caller's bytes; mutating them afterwards must
	// not reach the stored entry.
	buf := []byte("mutate-me")
	st.SetBytes(key, Entry{Value: buf})
	buf[0] = 'X'
	if e, _ := st.Get(key, 0); string(e.Value) != "mutate-me" {
		t.Fatalf("stored value aliases the caller's buffer: %q", e.Value)
	}
	if !st.DeleteBytes(key) || st.DeleteBytes(key) {
		t.Fatal("DeleteBytes: want present-then-absent")
	}
}

// TestHandlerBatchMutationsDoNotAllocate is the batched-mode mirror of
// the single-datagram alloc tests: a chunk mixing GETs, overwrite-SETs
// and a miss must stay heap-free end to end.
func TestHandlerBatchMutationsDoNotAllocate(t *testing.T) {
	h := NewHandler(NewShardedStore(4, 0))
	frame := func(id uint16, r memcache.Request) []byte {
		return memcache.EncodeFrame(memcache.Frame{RequestID: id, Total: 1}, memcache.EncodeRequest(r))
	}
	const n = 16
	items := make([]*dataplane.BatchItem, n)
	scratches := make([][]byte, n)
	ins := make([][]byte, n)
	for i := 0; i < n; i++ {
		scratches[i] = make([]byte, 0, 4096)
		switch {
		case i%4 == 0:
			ins[i] = frame(uint16(i), memcache.Request{Op: memcache.OpSet,
				Key: fmt.Sprintf("key-%02d", i), Value: []byte("value-abc")})
		case i%4 == 3:
			ins[i] = frame(uint16(i), memcache.Request{Op: memcache.OpGet, Key: "absent"})
		default:
			ins[i] = frame(uint16(i), memcache.Request{Op: memcache.OpGet,
				Key: fmt.Sprintf("key-%02d", i-i%4)})
		}
		items[i] = &dataplane.BatchItem{Scratch: &scratches[i]}
	}
	run := func() {
		for k := range items {
			items[k].In = ins[k]
			items[k].Out = nil
			items[k].Served = false
		}
		h.HandleBatch(items)
	}
	run() // warm: first SETs insert, scratches size themselves
	allocs := testing.AllocsPerRun(200, run)
	if allocs != 0 {
		t.Fatalf("batched GET/SET chunk allocates %.1f per batch, want 0", allocs)
	}
	for i, it := range items {
		if len(it.Out) == 0 {
			t.Fatalf("item %d produced no reply", i)
		}
	}
}

func TestShardByKeyDeterministicAcrossFraming(t *testing.T) {
	src := netip.MustParseAddrPort("10.0.0.1:9999")
	raw := memcache.EncodeRequest(memcache.Request{Op: memcache.OpGet, Key: "key-42"})
	framed := memcache.EncodeFrame(memcache.Frame{RequestID: 5, Total: 1}, raw)
	// The same key dispatches identically whether framed or raw, and
	// regardless of request id.
	framed2 := memcache.EncodeFrame(memcache.Frame{RequestID: 900, Total: 1}, raw)
	h1, h2, h3 := ShardByKey(raw, src), ShardByKey(framed, src), ShardByKey(framed2, src)
	if h1 != h2 || h2 != h3 {
		t.Fatalf("ShardByKey not stable across framing: %d %d %d", h1, h2, h3)
	}
	// set/delete on the same key land with the gets.
	set := memcache.EncodeRequest(memcache.Request{Op: memcache.OpSet, Key: "key-42", Value: []byte("v")})
	if ShardByKey(set, src) != h1 {
		t.Fatal("set dispatches away from its key's shard")
	}
	// Unpeekable payloads fall back to the source hash.
	junk := []byte{1, 2, 3}
	if ShardByKey(junk, src) != ShardByKey(junk, src) {
		t.Fatal("fallback not deterministic")
	}
}
