package dataplane

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
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
	want := map[netip.AddrPort][][]byte{}
	for _, m := range staged {
		want[m.Src] = append(want[m.Src], m.Buf[:m.N])
	}
	got := map[netip.AddrPort][][]byte{}
	for _, m := range out {
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

func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

// FuzzBuildTrains drives the train builder with staged replies decoded
// from the fuzz bytes, three per reply: destination (one of four), a
// size class, and how much shorter than its class the reply is. Every
// reply aliases one shared receive slab, as handler replies may, and
// starts with its own index so a reordering cannot hide. The same
// batchState builds twice, as a shard's worker reuses its train buffers from
// one flush to the next.
func FuzzBuildTrains(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 3, 0, 1, 3, 0, 0, 3, 0, 0, 11, 9})
	f.Add(bytes.Repeat([]byte{2, 1, 0}, 80))            // 80 equal replies, one client: past MaxTrainSegs
	f.Add(bytes.Repeat([]byte{1, 5, 0}, 20))            // 4 KiB replies: past MaxTrainBytes
	f.Add(bytes.Repeat([]byte{0, 7, 0, 1, 15, 200}, 3)) // largest datagrams, never a train
	f.Add([]byte{0, 12, 3, 0, 12, 0, 0, 12, 0})         // a short segment before equal ones
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
		for i, off := 0, 0; i < n; i++ {
			buf := rx[off : off+lens[i]]
			for k := range buf {
				buf[k] = byte(i + k)
			}
			staged = append(staged, netio.Message{Buf: buf, N: len(buf), Src: dests[data[3*i]&3]})
			off += lens[i]
		}
		w := &batchState{}
		for range 2 {
			w.tx = append(w.tx[:0], staged...)
			checkTrains(t, staged, w.buildTrains(), rx)
		}
	})
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
