package kvs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestSeqlockTortureRecycledRecords is the -race torture test for the
// arena: the writer keeps freeing records and handing them to other keys
// — overwrites whose values cross size classes both ways, deletes and
// reinserts — while lock-free readers look every key up. A reader must
// never get a value that is not some version of its own key, and never
// miss a key that is never deleted: a record recycled under a slot that
// still holds its key shows another key, and only the seq validation
// after a key mismatch keeps that from reading as a miss. At the end the
// arena must be within its stated bound: never more records of a class
// than entries of that class at once, so at most one per key and class.
func TestSeqlockTortureRecycledRecords(t *testing.T) {
	const (
		stable  = 16 // overwritten across classes, never deleted
		churned = 16 // deleted and reinserted
		readers = 3
		// The writer runs for at least this many writes and a second:
		// un-raced, a second is what it takes a reader to land in the
		// window between loading a slot and reading its record.
		minWrites = 60000
	)
	// Four size classes; the smallest holds the longest prefix below.
	sizes := []int{16, 40, 150, 600}
	key := func(i int) []byte { return fmt.Appendf(nil, "rec-%03d", i) }
	// Version n of key i is "rec-iii:n:", padded to one of the sizes with
	// a byte of the key's own.
	value := func(i, n int) []byte {
		v := fmt.Appendf(nil, "%s:%d:", key(i), n)
		return append(v, bytes.Repeat([]byte{'a' + byte(i%26)}, sizes[n%len(sizes)]-len(v))...)
	}
	isVersionOf := func(i int, v []byte) bool {
		rest, ok := bytes.CutPrefix(v, append(key(i), ':'))
		digits, _, _ := bytes.Cut(rest, []byte(":"))
		n, err := strconv.Atoi(string(digits))
		return ok && err == nil && bytes.Equal(v, value(i, n))
	}
	st := NewShardedStore(1, 0)
	version := make([]int, stable+churned) // 0: deleted
	for i := range version {
		version[i] = i + 1
		st.SetBytes(key(i), Entry{Value: value(i, i+1)})
	}

	var stop atomic.Bool
	var foreign, falseMiss atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			keys := make([][]byte, len(version))
			for i := range keys {
				keys[i] = key(i)
			}
			scratch := make([]byte, 0, 1024)
			for n := r; !stop.Load(); n++ {
				i := n % len(keys)
				var v []byte
				ok := false
				if n&1 == 0 {
					var e Entry
					e, ok = st.Get(keys[i], 0)
					v = e.Value
				} else if scratch, ok = st.AppendGetHit(scratch[:0], keys[i], 0); ok {
					_, v, _ = bytes.Cut(scratch, []byte("\r\n")) // past "VALUE <key> <flags> <len>"
					v = bytes.TrimSuffix(v, []byte("\r\nEND\r\n"))
				}
				switch {
				case ok && !isVersionOf(i, v):
					foreign.Add(1)
				case !ok && i < stable:
					falseMiss.Add(1)
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(28))
	start := time.Now()
	it := len(version) + 1
	for ; it <= minWrites || time.Since(start) < time.Second; it++ {
		if i := rng.Intn(len(version)); i < stable || version[i] == 0 {
			version[i] = it
			st.SetBytes(key(i), Entry{Value: value(i, it)})
		} else {
			version[i] = 0
			st.DeleteBytes(key(i))
		}
	}
	stop.Store(true)
	wg.Wait()

	if n := foreign.Load(); n != 0 {
		t.Errorf("readers got %d values that are no version of their key", n)
	}
	if n := falseMiss.Load(); n != 0 {
		t.Errorf("readers missed never-deleted keys %d times", n)
	}
	for i, n := range version {
		e, ok := st.Get(key(i), 0)
		if ok != (n != 0) || ok && !bytes.Equal(e.Value, value(i, n)) {
			t.Fatalf("key %s: final state %q %v, want version %d", key(i), e.Value, ok, n)
		}
	}
	// The bound: a record per key in each class at most, and chunks of at
	// most twice the records' words plus one more chunk.
	records, words := 0, 0
	for _, n := range sizes {
		records += len(version)
		words += len(version) * classWords[classOf(recordWords(len(key(0)), n))]
	}
	if a := &st.parts[0].slab; a.records > records || a.words > 2*words+maxChunkWords {
		t.Fatalf("arena carved %d records in %d words over %d writes, bound %d records in %d words",
			a.records, a.words, it, records, 2*words+maxChunkWords)
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
	if st.Len() != 8 {
		t.Fatalf("Len = %d after a fresh key at the bound, want 8 (one eviction)", st.Len())
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

// Sampled GET hits feed the hot-key sketch the request's own key bytes;
// the sketch copies a key only when it enters, into its slot's reused
// buffer. With a Zipf stream churning a 16-slot sketch, hits allocate
// nothing once every slot has held a key.
func TestSampledGetHitsDoNotAllocate(t *testing.T) {
	st := NewShardedStore(1, 0)
	st.EnableHotKeys(16)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "k%07d", i)
		st.SetBytes(keys[i], Entry{Value: []byte("value")})
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(28)), 1.1, 1, uint64(len(keys)-1))
	picks := make([]int, 4096)
	for i := range picks {
		picks[i] = int(zipf.Uint64())
	}
	out := make([]byte, 0, 256)
	hits := func() {
		for _, i := range picks {
			var ok bool
			if out, ok = st.AppendGetHit(out[:0], keys[i], 0); !ok {
				t.Fatalf("miss on %s", keys[i])
			}
		}
	}
	hits()
	if a := testing.AllocsPerRun(20, hits); a != 0 {
		t.Fatalf("%d sampled GET hits allocate %.1f times", len(picks), a)
	}
	replaced := 0
	for _, hk := range st.HotKeys(16) {
		if hk.Err > 0 {
			replaced++
		}
	}
	if replaced == 0 {
		t.Fatal("no key ever replaced another in the sketch: the stream did not churn it")
	}
}

// The record classes cover every record the header can describe, about
// 1.25x apart, and classOf picks the smallest that fits.
func TestRecordClasses(t *testing.T) {
	if last, most := classWords[numClasses-1], recordWords(maxKeyLen, maxValueLen); last < most {
		t.Fatalf("largest class %d words, largest record %d", last, most)
	}
	for c := 1; c < numClasses; c++ {
		if w, prev := classWords[c], classWords[c-1]; w <= prev || w > max(prev+1, prev*5/4) {
			t.Fatalf("class %d: %d words after %d", c, w, prev)
		}
	}
	for _, n := range []int{2, 3, 8, 9, 100, 256, 257, 1000, 1 << 20, recordWords(maxKeyLen, maxValueLen)} {
		c := classOf(n)
		if classWords[c] < n || c > 0 && classWords[c-1] >= n {
			t.Fatalf("classOf(%d) = %d (%d words)", n, c, classWords[c])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a key longer than a header can say was stored")
		}
	}()
	NewShardedStore(1, 0).SetBytes(make([]byte, maxKeyLen+1), Entry{})
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
	st.parts[0].reserve(1 << 20)
	if got := tableSlots(st)[0]; got != 2*bound {
		t.Fatalf("reserve grew a bounded table past its shape: %d slots", got)
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

// FillFrom reserves the table growth would have built, not twice it:
// its destination ends with no more slots than a store that took the
// same entries one Set at a time, whatever either side's partitions.
func TestFillFromReservesNoMoreThanGrowth(t *testing.T) {
	for _, tc := range []struct{ n, srcParts, dstParts int }{
		{100, 2, 2}, {12_000, 1, 1}, {20_000, 2, 2}, {20_000, 4, 1},
	} {
		src, grown := NewShardedStore(tc.srcParts, 0), NewShardedStore(tc.dstParts, 0)
		for i := 0; i < tc.n; i++ {
			k := fmt.Sprintf("key-%d", i)
			src.Set(k, Entry{Value: []byte("value")})
			grown.Set(k, Entry{Value: []byte("value")})
		}
		dst := NewShardedStore(tc.dstParts, 0)
		dst.FillFrom(src)
		for i, got := range tableSlots(dst) {
			if want := tableSlots(grown)[i]; got > want {
				t.Errorf("%+v: partition %d filled to %d slots, Set grew it to %d", tc, i, got, want)
			}
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
