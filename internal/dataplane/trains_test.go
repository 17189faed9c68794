package dataplane

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"incod/internal/netio"
)

// checkTrains holds one buildTrains output to the UDP_SEGMENT contract:
// every message is a pass-through or a legal train (one destination,
// SegSize-byte segments of which only the last may be shorter, within
// the kernel's segment and byte bounds, copied out of the receive
// buffers rx), and unrolling the output gives each destination exactly
// the replies staged for it, in staging order.
func checkTrains(t *testing.T, staged, out []netio.Message, rx []byte) {
	t.Helper()
	want, got := unroll(t, staged, nil), unroll(t, out, rx)
	for dst, w := range want {
		g := got[dst]
		if len(g) != len(w) {
			t.Fatalf("%v: %d datagrams out for %d staged", dst, len(g), len(w))
		}
		for i := range w {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("%v: datagram %d is %d bytes %x..., staged %d bytes %x...", dst, i, len(g[i]), g[i][:1], len(w[i]), w[i][:1])
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("replies for %d destinations, %d staged", len(got), len(want))
	}
}

// unroll returns each destination's datagrams in ms, in order, a train
// cut into its segments. Each train must be legal and copied out of rx.
func unroll(t *testing.T, ms []netio.Message, rx []byte) map[netip.AddrPort][][]byte {
	t.Helper()
	got := map[netip.AddrPort][][]byte{}
	for _, m := range ms {
		if m.SegSize == 0 {
			got[m.Src] = append(got[m.Src], m.Buf[:m.N])
			continue
		}
		if m.SegSize >= m.N || m.Segments() > netio.MaxTrainSegs || m.N > netio.MaxTrainBytes {
			t.Fatalf("illegal train: %d bytes of %d-byte segments (%d)", m.N, m.SegSize, m.Segments())
		}
		if overlaps(m.Buf[:m.N], rx) {
			t.Fatalf("a %d-byte train aliases the receive buffers", m.N)
		}
		for off := 0; off < m.N; off += m.SegSize {
			got[m.Src] = append(got[m.Src], m.Buf[off:min(off+m.SegSize, m.N)])
		}
	}
	return got
}

func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

// checkTaggedTrains holds the output for destinations whose staged
// replies are all tagged, which buildTrains may send in any order: every
// message is a pass-through or a legal train, each destination gets the
// replies staged for it, its equal-length ones in staging order, and in
// no more messages than arrival, the same replies cut untagged, gave it.
func checkTaggedTrains(t *testing.T, staged, out, arrival []netio.Message, rx []byte) {
	t.Helper()
	want, got := unroll(t, staged, nil), unroll(t, out, rx)
	sends := map[netip.AddrPort]int{}
	for _, m := range out {
		sends[m.Src]++
	}
	for _, m := range arrival {
		sends[m.Src]--
	}
	byLen := func(ds [][]byte) map[int][][]byte {
		l := map[int][][]byte{}
		for _, d := range ds {
			l[len(d)] = append(l[len(d)], d)
		}
		return l
	}
	for dst, w := range want {
		if len(got[dst]) != len(w) {
			t.Fatalf("%v (tagged): %d datagrams out for %d staged", dst, len(got[dst]), len(w))
		}
		g := byLen(got[dst])
		for n, wl := range byLen(w) {
			gl := g[n]
			if len(gl) != len(wl) {
				t.Fatalf("%v (tagged): %d datagrams of %d bytes out, %d staged", dst, len(gl), n, len(wl))
			}
			for i := range wl {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("%v (tagged): %d-byte datagram %d is %x..., staged %x...", dst, n, i, gl[i][:1], wl[i][:1])
				}
			}
		}
		if sends[dst] > 0 {
			t.Fatalf("%v (tagged): %d more sends than the arrival-order cut", dst, sends[dst])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("replies for %d tagged destinations, %d staged", len(got), len(want))
	}
}

// FuzzBuildTrains drives the train builder with staged replies decoded
// from the fuzz bytes, three per reply: destination (one of four, the
// first byte's low two bits; its bit 2 tags the reply), a size class, and
// how much shorter than its class the reply is. Every reply aliases one
// shared receive slab, as handler replies may, and starts with its own
// index so a reordering cannot hide. The same batchState builds twice, as
// a shard's worker reuses its train buffers from one flush to the next.
// A destination with an untagged reply is held to checkTrains; one whose
// replies are all tagged to checkTaggedTrains, against the same replies
// built untagged.
func FuzzBuildTrains(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 3, 0, 1, 3, 0, 0, 3, 0, 0, 11, 9})
	f.Add(bytes.Repeat([]byte{2, 1, 0}, 80))            // 80 equal replies, one client: past MaxTrainSegs
	f.Add(bytes.Repeat([]byte{1, 5, 0}, 20))            // 4 KiB replies: past MaxTrainBytes
	f.Add(bytes.Repeat([]byte{0, 7, 0, 1, 15, 200}, 3)) // largest datagrams, never a train
	f.Add([]byte{0, 12, 3, 0, 12, 0, 0, 12, 0})         // a short segment before equal ones
	var etc, mixed []byte
	for i := range 32 {
		// ETC-length replies (48-100 and 1024-byte classes, shortened),
		// all tagged, to one client.
		etc = append(etc, 4, byte(9+i%3), byte(i*37))
		// One client, every other reply tagged.
		mixed = append(mixed, byte(1|4*(i&1)), byte(10+i%2), byte(i*53))
	}
	f.Add(etc)
	f.Add(mixed)
	// Tagged near-64 KiB replies each paired with a short one: longest
	// first, the byte bound would send the long ones alone.
	f.Add(bytes.Repeat([]byte{4, 15, 255, 4, 1, 0}, 2))
	sizes := [...]int{1, 48, 100, 1024, 1400, 4096, 9000, netio.MaxTrainBytes}
	var dests [4]netip.AddrPort
	for i := range dests {
		dests[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), uint16(4000+i))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/3, 96)
		lens := make([]int, n)
		total := 0
		for i := range lens {
			b := data[3*i:]
			lens[i] = sizes[b[1]&7]
			if b[1]&8 != 0 {
				lens[i] -= int(b[2]) % lens[i]
			}
			total += lens[i]
		}
		rx := make([]byte, total)
		staged := make([]netio.Message, 0, n)
		tagged := make([]bool, n)
		ordered := map[netip.AddrPort]bool{} // holds an untagged reply
		for i, off := 0, 0; i < n; i++ {
			buf := rx[off : off+lens[i]]
			for k := range buf {
				buf[k] = byte(i + k)
			}
			dst := dests[data[3*i]&3]
			staged = append(staged, netio.Message{Buf: buf, N: len(buf), Src: dst})
			tagged[i] = data[3*i]&4 != 0
			ordered[dst] = ordered[dst] || !tagged[i]
			off += lens[i]
		}
		split := func(ms []netio.Message) (keep, free []netio.Message) {
			for _, m := range ms {
				if ordered[m.Src] {
					keep = append(keep, m)
				} else {
					free = append(free, m)
				}
			}
			return keep, free
		}
		arrival := &batchState{}
		arrival.tx = append(arrival.tx, staged...)
		arrival.txTagged = make([]bool, n)
		_, arrivalFree := split(arrival.buildTrains())
		stagedKeep, stagedFree := split(staged)
		w := &batchState{}
		for range 2 {
			w.tx = append(w.tx[:0], staged...)
			w.txTagged = append(w.txTagged[:0], tagged...)
			keep, free := split(w.buildTrains())
			checkTrains(t, stagedKeep, keep, rx)
			checkTaggedTrains(t, stagedFree, free, arrivalFree, rx)
		}
	})
}

// BenchmarkBuildTrains times the train builder on 32-reply flushes to
// one client: equal-length replies (a 64-byte value's framed GET hit,
// kvs_get_host's) staged untagged and tagged, ETC-length ones (80 % GET
// hits of Zipf keys with ETC value sizes, 20 % STORED) and DNS answers
// (56-byte hits, 10 % 40-byte NXDOMAINs, dns_train_uring's) each staged
// untagged and tagged. sends/flush is the messages each flush hands the
// kernel, one loopback traversal each.
func BenchmarkBuildTrains(b *testing.B) {
	const flushes, batch = 64, 32
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.06, 1, 99_999)
	valueLen := make([]int, 4096)
	for i := range valueLen {
		valueLen[i] = min(max(int(rng.ExpFloat64()*90), 16), 1024)
	}
	hit := func(n int) int {
		return 8 + len("VALUE k0000000 0 \r\n") + len(strconv.Itoa(n)) + n + len("\r\nEND\r\n")
	}
	etc := func() int {
		if rng.Intn(5) == 0 {
			return 8 + len("STORED\r\n")
		}
		return hit(valueLen[zipf.Uint64()*2654435761%uint64(len(valueLen))])
	}
	dst := netip.MustParseAddrPort("10.0.0.1:4000")
	build := func(size func() int) [][]netio.Message {
		fl := make([][]netio.Message, flushes)
		for f := range fl {
			for range batch {
				buf := make([]byte, size())
				fl[f] = append(fl[f], netio.Message{Buf: buf, N: len(buf), Src: dst})
			}
		}
		return fl
	}
	dns := func() int {
		if rng.Intn(10) == 0 {
			return 40
		}
		return 56
	}
	equal, etcFlushes, dnsFlushes := build(func() int { return hit(64) }), build(etc), build(dns)
	for _, row := range []struct {
		name   string
		tagged bool
		fl     [][]netio.Message
	}{
		{"equal", false, equal},
		{"equal-tagged", true, equal},
		{"etc-untagged", false, etcFlushes},
		{"etc-tagged", true, etcFlushes},
		{"dns-untagged", false, dnsFlushes},
		{"dns-tagged", true, dnsFlushes},
	} {
		b.Run(row.name, func(b *testing.B) {
			tags := make([]bool, batch)
			for i := range tags {
				tags[i] = row.tagged
			}
			w := &batchState{}
			flush := func(i int) int {
				w.tx = append(w.tx[:0], row.fl[i%flushes]...)
				w.txTagged = append(w.txTagged[:0], tags...)
				return len(w.buildTrains())
			}
			for i := range flushes { // grow the train buffers once
				flush(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			sends := 0
			for i := 0; i < b.N; i++ {
				sends += flush(i)
			}
			b.ReportMetric(float64(sends)/float64(b.N), "sends/flush")
		})
	}
}

// refusingConn is a BatchConn whose first ReadBatch delivers batch and
// whose first WriteBatch sends one message and refuses the next; later
// reads time out and later writes send everything. It says it is the
// mmsg rung, the one that trains.
type refusingConn struct {
	batch   []netio.Message
	reads   atomic.Int32
	writes  atomic.Int32
	refused atomic.Int32 // datagrams the refused message carried
}

func (c *refusingConn) ReadBatch(ms []netio.Message) (int, error) {
	if c.reads.Add(1) > 1 {
		time.Sleep(time.Millisecond)
		return 0, timeoutErr{}
	}
	for i, m := range c.batch {
		ms[i].N, ms[i].Src = copy(ms[i].Buf, m.Buf), m.Src
	}
	return len(c.batch), nil
}

func (c *refusingConn) WriteBatch(ms []netio.Message) (int, error) {
	if c.writes.Add(1) > 1 || len(ms) < 2 {
		return len(ms), nil
	}
	c.refused.Store(int32(ms[1].Segments()))
	return 1, errors.New("refused")
}

func (c *refusingConn) SetReadDeadline(time.Time) error { return nil }
func (c *refusingConn) OwnThread()                      {}
func (c *refusingConn) LocalAddr() net.Addr             { return testSrc }
func (c *refusingConn) Close() error                    { return nil }
func (c *refusingConn) Backend() string                 { return "mmsg" }

// A train the socket refuses is lost whole, so it counts as many write
// errors as it carried replies: replies + write_errors is what the
// handlers produced.
func TestRefusedTrainCountsEveryDatagram(t *testing.T) {
	solo := netip.MustParseAddrPort("10.0.0.1:1000")
	busy := netip.MustParseAddrPort("10.0.0.2:2000")
	bc := &refusingConn{batch: []netio.Message{{Buf: []byte("solo"), Src: solo}}}
	for i := 0; i < 5; i++ {
		bc.batch = append(bc.batch, netio.Message{Buf: []byte(fmt.Sprintf("busy-%d", i)), Src: busy})
	}
	echo := HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) {
		*scratch = append((*scratch)[:0], in...)
		return *scratch, true
	})
	e := NewBatchedConns([]net.PacketConn{newFakeConn(1)}, []netio.BatchConn{bc}, echo, Config{})
	e.gsoTx = true // whatever the probe says here: this is about the flush
	e.Start()
	waitFor(t, "the batch to be flushed", func() bool { return bc.writes.Load() > 0 })
	e.Close()
	st := e.Snapshot()
	if got := bc.refused.Load(); got != 5 {
		t.Fatalf("the refused message carried %d datagrams, want the 5-reply train", got)
	}
	if st.Replies != 1 || st.WriteErrors != 5 || st.Replies+st.WriteErrors != uint64(len(bc.batch)) {
		t.Fatalf("replies %d + write_errors %d, want 1 + 5 for %d staged", st.Replies, st.WriteErrors, len(bc.batch))
	}
}
