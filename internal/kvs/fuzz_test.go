package kvs

import (
	"bytes"
	"fmt"
	"testing"

	"incod/internal/dataplane"
	"incod/internal/memcache"
	"incod/internal/simnet"
)

// FuzzShardedStore drives a store with an op stream decoded from the
// fuzz input, three bytes an op, and checks it against a map model:
// sets and overwrites whose values cross size classes both ways, deletes
// and reinserts, CLOCK evictions at a bound (the model learns which key
// went by looking for the one that vanished), expiry as the clock
// advances, and FillFrom into a second store, which then takes the rest
// of the stream.
// Every Get of the op's key, both read forms, must be what the model
// says, and after each fill and at the end every key must be.
func FuzzShardedStore(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 9, 1, 1, 10, 2, 1, 0, 0, 1, 3})
	f.Add([]byte{0, 0, 0x89, 0, 1, 2, 4, 0, 3, 0, 0, 9, 5, 0, 1, 0, 0, 4, 2, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 3, 7, 1, 5, 2, 0, 7, 0x8a, 0, 11, 4, 4, 9, 1, 5, 2, 1}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		const keys, bound = 12, 8
		lengths := []int{0, 1, 7, 8, 9, 16, 40, 100, 300, 1400, 5000}
		key := func(i int) []byte { return fmt.Appendf(nil, "%0*d", 1+3*i, i) } // 1 to 34 bytes
		st, bounded := NewShardedStore(2, bound), true
		model := map[int]Entry{}
		now := int64(1)
		held := func(st *ShardedStore, k []byte) bool { // present, expired or not, without a CLOCK touch
			h := dataplane.HashBytes(k)
			p := st.parts[h&st.mask]
			p.mu.Lock()
			defer p.mu.Unlock()
			s, _ := p.findForWrite(p.table.Load(), h, k)
			return s != nil
		}
		check := func(op, i int) {
			t.Helper()
			want, ok := model[i]
			ok = ok && (want.Expires == 0 || now < want.Expires)
			e, got := st.Get(key(i), simnet.Time(now))
			if got != ok || ok && (e.Flags != want.Flags || e.Expires != want.Expires || !bytes.Equal(e.Value, want.Value)) {
				t.Fatalf("op %d: Get(%s) = %v %+v, model %v %+v", op, key(i), got, e, ok, want)
			}
			out, got := st.AppendGetHit([]byte("x"), key(i), simnet.Time(now))
			if ok {
				want := append(memcache.AppendValueHeader([]byte("x"), key(i), want.Flags, len(want.Value)), want.Value...)
				if !got || !bytes.Equal(out, append(want, "\r\nEND\r\n"...)) {
					t.Fatalf("op %d: AppendGetHit(%s) = %q %v", op, key(i), out, got)
				}
			} else if got || string(out) != "x" {
				t.Fatalf("op %d: AppendGetHit(%s) hit %q on a miss", op, key(i), out)
			}
		}
		for op := 0; len(data) >= 3; op, data = op+1, data[3:] {
			i, arg := int(data[1])%keys, int(data[2])
			switch data[0] % 6 {
			case 0, 1: // set: arg picks the length, and with its top bit an expiry
				e := Entry{Flags: uint32(op), Value: bytes.Repeat([]byte{byte(op)}, lengths[arg%len(lengths)])}
				if arg&0x80 != 0 {
					e.Expires = now + int64(arg>>4&7)
				}
				evicted := st.Stats().Evictions
				st.SetBytes(key(i), e)
				model[i] = e
				if bounded && st.Stats().Evictions != evicted {
					gone := -1
					for j := range model {
						if !held(st, key(j)) {
							if gone >= 0 || j == i {
								t.Fatalf("op %d: one eviction lost %s and %s", op, key(gone), key(j))
							}
							gone = j
						}
					}
					delete(model, gone)
				}
			case 2:
				_, want := model[i]
				if got := st.DeleteBytes(key(i)); got != want {
					t.Fatalf("op %d: Delete(%s) = %v, model holds it: %v", op, key(i), got, want)
				}
				delete(model, i)
			case 3, 4: // a reader's look at another time
				now += int64(arg & 3)
			case 5: // warm a store that already took one newer write of key i
				dst := NewShardedStore(1+3*(arg&1), 0)
				newer := Entry{Flags: 1 << 31, Value: []byte("written-through")}
				dst.SetBytes(key(i), newer)
				_, had := model[i]
				want := len(model)
				if had {
					want--
				}
				if got := dst.FillFrom(st); got != want {
					t.Fatalf("op %d: FillFrom installed %d, model %d", op, got, want)
				}
				st, bounded = dst, false
				model[i] = newer
				for j := 0; j < keys; j++ {
					check(op, j)
				}
			}
			check(op, i)
			if st.Len() != len(model) {
				t.Fatalf("op %d: Len %d, model %d", op, st.Len(), len(model))
			}
		}
		for j := 0; j < keys; j++ {
			check(-1, j)
		}
	})
}
