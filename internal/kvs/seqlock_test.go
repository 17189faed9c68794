package kvs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"incod/internal/memcache"
	"incod/internal/simnet"
)

// TestSeqlockTortureSetDeleteVsGet is the -race torture test for the
// lock-free read path: writers churn versioned values (changing length,
// flags and bytes together) and delete/reinsert keys while readers
// hammer Get and AppendGetHit. A reader must never observe a torn
// value — flags carry the version and every value byte must match it —
// and the final state must reflect each key's last write exactly.
func TestSeqlockTortureSetDeleteVsGet(t *testing.T) {
	const (
		writers    = 2
		readers    = 4
		keysPerW   = 32
		writerIter = 15000
	)
	st := NewShardedStore(4, 0)
	key := func(w, i int) string { return fmt.Sprintf("torture-%d-%02d", w, i) }
	valFor := func(version uint32) []byte {
		n := 3 + int(version%6)*8 // crosses word-count boundaries
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(version)
		}
		return v
	}

	var stop atomic.Bool
	var torn atomic.Int64
	var readerWg sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(r int) {
			defer readerWg.Done()
			scratch := make([]byte, 0, 4096)
			var kb []byte
			for n := 0; !stop.Load(); n++ {
				kb = append(kb[:0], key(n%writers, n%keysPerW)...)
				if r%2 == 0 {
					e, ok := st.Get(kb, 0)
					if !ok {
						continue
					}
					want := byte(e.Flags)
					for _, b := range e.Value {
						if b != want {
							torn.Add(1)
							return
						}
					}
					if len(e.Value) != len(valFor(e.Flags)) {
						torn.Add(1)
						return
					}
				} else {
					out, ok := st.AppendGetHit(scratch[:0], kb, 0)
					if !ok {
						continue
					}
					if !bytes.HasPrefix(out, []byte("VALUE ")) || !bytes.HasSuffix(out, []byte("\r\nEND\r\n")) {
						torn.Add(1)
						return
					}
				}
			}
		}(r)
	}

	finalVersion := make([]uint32, writers*keysPerW)
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < writerIter; it++ {
				i := rng.Intn(keysPerW)
				version := uint32(it + 1)
				k := key(w, i)
				if rng.Intn(8) == 0 {
					st.Delete(k)
					finalVersion[w*keysPerW+i] = 0
					continue
				}
				st.Set(k, Entry{Flags: version, Value: valFor(version)})
				finalVersion[w*keysPerW+i] = version
			}
		}(w)
	}

	writerWg.Wait()
	stop.Store(true)
	readerWg.Wait()

	if n := torn.Load(); n != 0 {
		t.Fatalf("readers observed %d torn values", n)
	}
	// No update lost: every key holds exactly its last written version.
	for w := 0; w < writers; w++ {
		for i := 0; i < keysPerW; i++ {
			want := finalVersion[w*keysPerW+i]
			e, ok := st.GetString(key(w, i), 0)
			if want == 0 {
				if ok {
					t.Fatalf("key %s: deleted but still present", key(w, i))
				}
				continue
			}
			if !ok {
				t.Fatalf("key %s: lost final update v%d", key(w, i), want)
			}
			if e.Flags != want || !bytes.Equal(e.Value, valFor(want)) {
				t.Fatalf("key %s: final state v%d, want v%d", key(w, i), e.Flags, want)
			}
		}
	}
}

// TestClockSecondChanceEviction pins down the CLOCK policy: touched
// entries survive the sweep that evicts an untouched one.
func TestClockSecondChanceEviction(t *testing.T) {
	st := NewShardedStore(1, 8)
	for i := 0; i < 8; i++ {
		st.Set(fmt.Sprintf("k%d", i), Entry{Value: []byte("v")})
	}
	// Touch k0..k3: their reference bits protect them.
	for i := 0; i < 4; i++ {
		if _, ok := st.GetString(fmt.Sprintf("k%d", i), 0); !ok {
			t.Fatalf("k%d missing before eviction", i)
		}
	}
	st.Set("k8", Entry{Value: []byte("v")})
	for i := 0; i < 4; i++ {
		if _, ok := st.GetString(fmt.Sprintf("k%d", i), 0); !ok {
			t.Fatalf("k%d was evicted despite its reference bit", i)
		}
	}
	if _, ok := st.GetString("k8", 0); !ok {
		t.Fatal("k8 missing after insert")
	}
	survivors := 0
	for i := 4; i < 8; i++ {
		if _, ok := st.GetString(fmt.Sprintf("k%d", i), 0); ok {
			survivors++
		}
	}
	if survivors != 3 {
		t.Fatalf("%d of k4..k7 survived, want exactly 3 (one CLOCK eviction)", survivors)
	}
	if st.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Stats().Evictions)
	}
}

// mapStore is the oracle of TestLockFreeMatchesMutexStore: memcached
// semantics over a plain map, nothing else.
type mapStore map[string]Entry

func (m mapStore) Apply(req memcache.Request, _ simnet.Time) memcache.Response {
	switch req.Op {
	case memcache.OpGet:
		resp := memcache.Response{Status: memcache.StatusEnd}
		for _, k := range req.AllKeys() {
			if e, ok := m[k]; ok {
				resp.Items = append(resp.Items, memcache.Item{Key: k, Flags: e.Flags, Value: e.Value})
			}
		}
		if len(resp.Items) > 0 {
			first := resp.Items[0]
			resp.Key, resp.Flags, resp.Value, resp.Hit = first.Key, first.Flags, first.Value, true
		}
		return resp
	case memcache.OpSet:
		m[req.Key] = Entry{Flags: req.Flags, Value: req.Value}
		return memcache.Response{Status: memcache.StatusStored}
	}
	if _, ok := m[req.Key]; !ok {
		return memcache.Response{Status: memcache.StatusNotFound}
	}
	delete(m, req.Key)
	return memcache.Response{Status: memcache.StatusDeleted}
}

// TestLockFreeMatchesMutexStore replays one deterministic request
// sequence against a plain map (the oracle) and the lock-free
// ShardedStore, comparing every encoded response byte for byte — the
// PR 5 equivalence harness applied across implementations.
func TestLockFreeMatchesMutexStore(t *testing.T) {
	oracle := mapStore{}
	st := NewShardedStore(4, 0)
	rng := rand.New(rand.NewSource(9))
	key := func(i int) string { return fmt.Sprintf("eq-%02d", i) }
	for op := 0; op < 5000; op++ {
		var req memcache.Request
		switch rng.Intn(5) {
		case 0, 1:
			req = memcache.Request{Op: memcache.OpSet, Key: key(rng.Intn(40)),
				Flags: uint32(op), Value: fmt.Appendf(nil, "val-%d-%d", op, rng.Intn(1000))}
		case 2:
			req = memcache.Request{Op: memcache.OpDelete, Key: key(rng.Intn(40))}
		case 3:
			req = memcache.Request{Op: memcache.OpGet, Key: key(rng.Intn(40))}
		default:
			req = memcache.Request{Op: memcache.OpGet, Key: key(rng.Intn(40)),
				Extra: []string{key(rng.Intn(40)), key(rng.Intn(40))}}
		}
		now := simnet.Time(op)
		want := memcache.AppendResponse(nil, oracle.Apply(req, now))
		got := memcache.AppendResponse(nil, st.Apply(req, now))
		if !bytes.Equal(want, got) {
			t.Fatalf("op %d (%+v): lock-free response %q != map oracle %q", op, req, got, want)
		}
	}
}

// TestAppendGetHitZeroAllocZeroLocks is the acceptance check for the
// tentpole: the GET hit path allocates nothing and acquires no mutex
// (the mutex profile stays empty of read-path frames even under
// concurrent readers).
func TestAppendGetHitZeroAllocZeroLocks(t *testing.T) {
	st := NewShardedStore(4, 0)
	st.Set("hot-key", Entry{Flags: 7, Value: []byte("hot-value")})
	kb := []byte("hot-key")
	out := make([]byte, 0, 256)

	if n := testing.AllocsPerRun(200, func() {
		var ok bool
		out, ok = st.AppendGetHit(out[:0], kb, 0)
		if !ok {
			t.Fatal("miss on hot key")
		}
	}); n != 0 {
		t.Fatalf("AppendGetHit allocates %.1f per hit, want 0", n)
	}

	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 256)
			k := []byte("hot-key")
			for i := 0; i < 20000; i++ {
				buf, _ = st.AppendGetHit(buf[:0], k, 0)
			}
		}()
	}
	wg.Wait()
	var prof bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&prof, 1); err != nil {
		t.Fatalf("mutex profile: %v", err)
	}
	for _, frame := range []string{"AppendGetHit", "partition).read"} {
		if strings.Contains(prof.String(), frame) {
			t.Fatalf("mutex profile contains read-path frame %q:\n%s", frame, prof.String())
		}
	}
}

// TestHotKeySampler checks the GET-path top-K feed end to end: the
// skewed key dominates the merged snapshot and disabled stores report
// nil.
func TestHotKeySampler(t *testing.T) {
	st := NewShardedStore(2, 0)
	if hk := st.HotKeys(4); hk != nil {
		t.Fatalf("HotKeys without EnableHotKeys = %v, want nil", hk)
	}
	st.EnableHotKeys(4)
	cold := make([]string, 8)
	for i := range cold {
		cold[i] = fmt.Sprintf("cold-%d", i)
		st.Set(cold[i], Entry{Value: []byte("c")})
	}
	st.Set("hot", Entry{Value: []byte("h")})
	for cycle := 0; cycle < 1000; cycle++ {
		for j := 0; j < 8; j++ {
			if _, ok := st.GetString("hot", 0); !ok {
				t.Fatal("hot key missing")
			}
		}
		st.GetString(cold[cycle%8], 0)
	}
	hk := st.HotKeys(3)
	if len(hk) == 0 {
		t.Fatal("HotKeys returned nothing after 9000 sampled hits")
	}
	if hk[0].Key != "hot" {
		t.Fatalf("hottest key = %q (count %d), want \"hot\"; full: %v", hk[0].Key, hk[0].Count, hk)
	}
	if len(hk) > 3 {
		t.Fatalf("HotKeys(3) returned %d entries", len(hk))
	}
}

// TestShardedStoreRehashUnderReaders grows a partition through several
// table generations while readers probe it, exercising the
// poison-old-generation path.
func TestShardedStoreRehashUnderReaders(t *testing.T) {
	st := NewShardedStore(1, 0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kb []byte
			for n := 0; !stop.Load(); n++ {
				kb = append(kb[:0], fmt.Sprintf("grow-%04d", n%2000)...)
				if e, ok := st.Get(kb, 0); ok && !bytes.Equal(e.Value, kb) {
					t.Errorf("key %s: got value %q", kb, e.Value)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ { // grows 64 -> 4096 slots: several generations
		k := fmt.Sprintf("grow-%04d", i)
		st.Set(k, Entry{Value: []byte(k)})
	}
	stop.Store(true)
	wg.Wait()
	if st.Len() != 2000 {
		t.Fatalf("Len = %d, want 2000", st.Len())
	}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("grow-%04d", i)
		if e, ok := st.GetString(k, 0); !ok || string(e.Value) != k {
			t.Fatalf("key %s lost across rehashes (ok=%v val=%q)", k, ok, e.Value)
		}
	}
}

// tableSlots returns each partition's current table size.
func tableSlots(st *ShardedStore) []int {
	out := make([]int, len(st.parts))
	for i, p := range st.parts {
		out[i] = len(p.table.Load().slots)
	}
	return out
}

func rehashes(st *ShardedStore) (n int) {
	for _, p := range st.parts {
		n += p.rehashes
	}
	return n
}

// A bounded store's memory follows its contents: it starts at the
// minimum table whatever the bound, grows by rehash, and stops at the
// 2*bound shape it used to preallocate however hard it is churned.
func TestBoundedStoreGrowsToItsBoundShape(t *testing.T) {
	const bound = 1 << 12
	st := NewShardedStore(1, bound)
	if got := tableSlots(st)[0]; got != minTableSlots {
		t.Fatalf("empty bounded store holds a %d-slot table, want %d", got, minTableSlots)
	}
	for i := 0; i < 100; i++ {
		st.Set(fmt.Sprintf("k%d", i), Entry{Value: []byte("v")})
	}
	if got := tableSlots(st)[0]; got > 512 {
		t.Fatalf("100 entries hold a %d-slot table", got)
	}
	for i := 0; i < 10*bound; i++ {
		st.Set(fmt.Sprintf("k%d", i), Entry{Value: []byte("v")})
	}
	if got := tableSlots(st)[0]; got != 2*bound {
		t.Fatalf("store churned at its bound holds a %d-slot table, want %d", got, 2*bound)
	}
	if n := st.Len(); n != bound {
		t.Fatalf("Len = %d, want the bound %d", n, bound)
	}
	st.Reserve(1 << 20)
	if got := tableSlots(st)[0]; got != 2*bound {
		t.Fatalf("Reserve grew a bounded table past its shape: %d slots", got)
	}
}

// FillFrom walks the source in hash order and the destination hashes
// alike, so it must reserve before it walks: growing mid-walk wraps the
// ordered stream onto an already dense prefix and linear probing
// degenerates (100k entries took 3x as long). Counted in table rebuilds,
// not milliseconds: one per partition for the reservation, none after,
// against ten each when the table doubles its way up from 64 slots.
func TestFillFromReservesBeforeItWalks(t *testing.T) {
	const n = 100_000
	src := NewShardedStore(2, 0)
	for i := 0; i < n; i++ {
		src.Set(fmt.Sprintf("key-%d", i), Entry{Flags: uint32(i), Value: []byte("value")})
	}
	dst := NewShardedStore(2, 1<<20)
	if got := dst.FillFrom(src); got != n {
		t.Fatalf("FillFrom installed %d of %d", got, n)
	}
	if got := rehashes(dst); got != len(dst.parts) {
		t.Fatalf("filling %d entries rebuilt the tables %d times, want %d (one reservation per partition)",
			n, got, len(dst.parts))
	}
	if dst.Len() != n {
		t.Fatalf("Len = %d, want %d", dst.Len(), n)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		if e, ok := dst.GetString(fmt.Sprintf("key-%d", i), 0); !ok || e.Flags != uint32(i) || string(e.Value) != "value" {
			t.Fatalf("key-%d after fill: %+v %v", i, e, ok)
		}
	}
}

// FillFrom is install-if-absent: an entry the destination already holds
// (a write-through that beat the snapshot — newer by definition) is
// left alone, expired or not; everything else arrives whole, expiry and
// flags included, for every value length around the 8-byte word packing.
func TestFillFromInstallsOnlyAbsentEntries(t *testing.T) {
	src, dst := NewShardedStore(4, 0), NewShardedStore(2, 0)
	lengths := []int{0, 1, 7, 8, 9, 1400}
	for _, n := range lengths {
		src.Set(fmt.Sprintf("len-%d", n), Entry{Flags: uint32(n), Value: bytes.Repeat([]byte{'x'}, n), Expires: int64(1000 + n)})
	}
	src.Set("raced", Entry{Value: []byte("snapshot")})
	src.Set("raced-expired", Entry{Value: []byte("snapshot")})
	dst.Set("raced", Entry{Value: []byte("written-through")})
	dst.Set("raced-expired", Entry{Value: []byte("written-through"), Expires: 1})
	if got := dst.FillFrom(src); got != len(lengths) {
		t.Fatalf("installed %d, want %d", got, len(lengths))
	}
	for _, n := range lengths {
		e, ok := dst.GetString(fmt.Sprintf("len-%d", n), 0)
		if !ok || e.Flags != uint32(n) || e.Expires != int64(1000+n) || !bytes.Equal(e.Value, bytes.Repeat([]byte{'x'}, n)) {
			t.Fatalf("len-%d after fill: %+v %v", n, e, ok)
		}
	}
	if e, _ := dst.GetString("raced", 0); string(e.Value) != "written-through" {
		t.Fatalf("snapshot clobbered a newer write: %q", e.Value)
	}
	if _, ok := dst.GetString("raced-expired", 5); ok {
		t.Fatal("snapshot replaced an expired-but-present entry")
	}
	// The copy is a copy: overwriting the source in place afterwards
	// must not reach the destination.
	src.SetBytes([]byte("len-9"), Entry{Value: []byte("AAAAAAAAA")})
	if e, _ := dst.GetString("len-9", 0); string(e.Value) != "xxxxxxxxx" {
		t.Fatalf("destination aliases the source's value words: %q", e.Value)
	}
}
