//go:build linux && (amd64 || arm64)

package netio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"testing"
	"time"
)

// cmsg lays out one control message as the kernel does: u64 len, i32
// level, i32 type, data, padded to 8 bytes.
func cmsg(level, typ int32, data []byte) []byte {
	b := make([]byte, (16+len(data)+7)&^7)
	binary.LittleEndian.PutUint64(b, uint64(16+len(data)))
	binary.LittleEndian.PutUint32(b[8:], uint32(level))
	binary.LittleEndian.PutUint32(b[12:], uint32(typ))
	copy(b[16:], data)
	return b
}

// FuzzParseGROSegSize walks arbitrary completion control regions: the
// walk never panics, and a nonzero segment size is the payload of a
// SOL_UDP/UDP_GRO cmsg that lies inside the buffer at an aligned offset.
func FuzzParseGROSegSize(f *testing.F) {
	seg := binary.LittleEndian.AppendUint32(nil, 1200)
	f.Add(cmsg(solUDP, udpGRO, seg))
	f.Add(append(cmsg(0, 8, make([]byte, 12)), cmsg(solUDP, udpGRO, seg)...)) // IP_PKTINFO first
	f.Add(cmsg(solUDP, udpGRO, seg[:2]))                                      // too short to carry the size
	f.Add(cmsg(solUDP, udpSegment, seg))
	long := cmsg(solUDP, udpGRO, seg)
	binary.LittleEndian.PutUint64(long, 1<<40) // a length past the buffer
	f.Add(long)
	f.Add(make([]byte, 16)) // a zero length
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ctrl []byte) {
		got := parseGROSegSize(ctrl)
		if got == 0 {
			return
		}
		for off := 0; off+20 <= len(ctrl); off += 8 {
			c := ctrl[off:]
			clen := binary.LittleEndian.Uint64(c)
			if clen >= 20 && clen <= uint64(len(c)) &&
				binary.LittleEndian.Uint32(c[8:]) == solUDP && binary.LittleEndian.Uint32(c[12:]) == udpGRO &&
				int(int32(binary.LittleEndian.Uint32(c[16:]))) == got {
				return
			}
		}
		t.Fatalf("segment size %d from %x, which holds no UDP_GRO cmsg carrying it", got, ctrl)
	})
}

// FuzzSplitTrains drives the splitter with an op stream decoded from the
// fuzz bytes: a push is one received payload (length on the wire,
// segment size, bytes the buffer kept, source), a deliver is a read of
// 1–64 slots. Against a model that cuts each payload into its whole
// segments, the datagrams handed out must be exactly those, in arrival
// order across every resume, none longer than its segment size; every
// payload is released once, after its last datagram; the counters match.
func FuzzSplitTrains(f *testing.F) {
	f.Add([]byte{0, 0x0b, 0x40, 45, 0x08, 0x00, 1, 7, 7, 7})                                  // 64 × 45 B cut at 2048, read 4 at a time
	f.Add([]byte{0, 0x00, 0x2a, 8, 0xff, 0xff, 2, 0, 0x00, 0x00, 3, 0x00, 0x01, 1, 1})        // a train with a short tail, an empty datagram
	f.Add([]byte{0, 0x01, 0x00, 0, 0x00, 0x80, 3, 1, 0, 0x00, 0x64, 100, 0x00, 0x10, 4, 127}) // cut plain datagrams
	f.Fuzz(func(t *testing.T, ops []byte) {
		type dgram struct {
			b   string
			src netip.AddrPort
			seg int
		}
		var (
			s        trainSplitter
			want     []dgram // every datagram the model hands out, in order
			lastOf   []int   // per payload id: len(want) once its last datagram is out
			got      []dgram
			released = map[uint16]int{}
			cnt      RxStats
			fill     byte
		)
		var justReleased []uint16
		s.release = func(id uint16) {
			if released[id]++; released[id] > 1 {
				t.Fatalf("payload %d released twice", id)
			}
			justReleased = append(justReleased, id)
		}
		ms := mkMsgs(64, 4096)
		deliver := func(k int) {
			justReleased = justReleased[:0]
			n := s.deliver(ms[:k])
			if n > k || n < k && s.pending() {
				t.Fatalf("deliver into %d slots filled %d with pending=%v", k, n, s.pending())
			}
			for _, m := range ms[:n] {
				got = append(got, dgram{b: string(m.Buf[:m.N]), src: m.Src})
			}
			for _, id := range justReleased {
				if len(got) < lastOf[id] {
					t.Fatalf("payload %d released with %d of its datagrams still to deliver", id, lastOf[id]-len(got))
				}
			}
		}
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			if op&1 == 1 || len(ops) < 6 { // deliver into 1–64 slots
				deliver(int(op>>1)%64 + 1)
				continue
			}
			full := int(binary.BigEndian.Uint16(ops) % 4096)
			seg := int(ops[2])
			cut := int(binary.BigEndian.Uint16(ops[3:]))
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, ops[5]}), uint16(ops[5]))
			ops = ops[6:]
			payload := make([]byte, full)
			for i := range payload {
				fill = fill*31 + 7
				payload[i] = fill
			}
			got0 := min(cut, full)
			id := uint16(len(lastOf))
			if seg > 0 && seg < full {
				segs := (full + seg - 1) / seg
				whole := 0
				for i := 0; i < segs && min((i+1)*seg, full) <= got0; i++ {
					want = append(want, dgram{b: string(payload[i*seg : min((i+1)*seg, full)]), src: src, seg: seg})
					whole++
				}
				cnt.Trains++
				cnt.TrainSegs += uint64(segs)
				cnt.CutSegs += uint64(segs - whole)
			} else {
				want = append(want, dgram{b: string(payload[:got0]), src: src, seg: full})
			}
			lastOf = append(lastOf, len(want))
			s.push(payload[:got0], full, seg, src, id)
		}
		for s.pending() {
			deliver(1)
		}
		if len(got) != len(want) {
			t.Fatalf("%d datagrams delivered, the model %d", len(got), len(want))
		}
		for i := range want {
			if got[i].b != want[i].b || got[i].src != want[i].src {
				t.Fatalf("datagram %d: %x from %v, the model %x from %v", i, got[i].b, got[i].src, want[i].b, want[i].src)
			}
			if len(got[i].b) > want[i].seg {
				t.Fatalf("datagram %d is %d bytes, its segment size %d", i, len(got[i].b), want[i].seg)
			}
		}
		for id := range lastOf {
			if released[uint16(id)] != 1 {
				t.Fatalf("payload %d released %d times", id, released[uint16(id)])
			}
		}
		if st := s.st.snapshot(); st != cnt {
			t.Fatalf("counters %+v, the model %+v", st, cnt)
		}
	})
}

// trainOf packs segs datagrams of size bytes (the last one short by
// tail) into one UDP_SEGMENT message, and returns them one by one.
func trainOf(tag string, segs, size, tail int) (Message, []string) {
	var buf []byte
	var dgs []string
	for i := 0; i < segs; i++ {
		n := size
		if i == segs-1 {
			n -= tail
		}
		d := fmt.Sprintf("%s-%03d-%s", tag, i, bytes.Repeat([]byte{'.'}, size))[:n]
		dgs = append(dgs, d)
		buf = append(buf, d...)
	}
	return Message{Buf: buf, N: len(buf), SegSize: size}, dgs
}

// groServer is an mmsg conn on loopback with a GSO-capable client aimed
// at it. The server has made one read, into slots of slotSize bytes,
// which decided whether its socket takes UDP_GRO: a train queued before
// that decision was split by the kernel on arrival.
func groServer(t *testing.T, slotSize int) (*mmsgConn, BatchConn) {
	t.Helper()
	if err := ProbeGSO(); err != nil {
		t.Skipf("no UDP_SEGMENT trains to send: %v", err)
	}
	spc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := newMmsgConn(spc).(*mmsgConn)
	if c == nil {
		t.Fatal("no mmsg conn over a UDP socket")
	}
	cc, err := net.Dial("udp4", spc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := NewBatchConn(cc.(*net.UDPConn))
	t.Cleanup(func() { client.Close(); c.Close() })
	_ = c.SetReadDeadline(time.Now().Add(time.Millisecond))
	if _, err := c.ReadBatch(mkMsgs(1, slotSize)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read of an idle socket: %v", err)
	}
	c.recvs = 0
	return c, client
}

// readMsgs reads until want datagrams arrived.
func readMsgs(t *testing.T, bc BatchConn, ms []Message, want int) []string {
	t.Helper()
	var got []string
	for len(got) < want {
		_ = bc.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := bc.ReadBatch(ms)
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", len(got), want, err)
		}
		for _, m := range ms[:n] {
			if !m.Src.IsValid() {
				t.Fatalf("datagram %d has no source", len(got))
			}
			got = append(got, string(m.Buf[:m.N]))
		}
	}
	return got
}

// quiet checks that nothing more arrives: no datagram, no fragment.
func quiet(t *testing.T, bc BatchConn, ms []Message) {
	t.Helper()
	_ = bc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := bc.ReadBatch(ms); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%d datagrams more than expected (the first %q), err %v", n, ms[0].Buf[:ms[0].N], err)
	}
}

func sameDatagrams(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d datagrams, want %d:\n got %q\nwant %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("datagram %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestUringGROCutTrain sends one 64 × 45 B train (2880 B) into a ring
// whose buffers hold 2048 B. The 45 segments that fit whole come out,
// and the other 19 are counted cut: the 23 bytes of the 46th are not
// handed to the caller as if they were a datagram.
func TestUringGROCutTrain(t *testing.T) {
	if err := ProbeGSO(); err != nil {
		t.Skipf("no UDP_SEGMENT trains to send: %v", err)
	}
	server, client := newUringPair(t, UringConfig{BufSize: 2048})
	if st, _ := RxStatsOf(server); !st.GRO {
		t.Skip("the kernel does not take UDP_GRO")
	}
	train, dgs := trainOf("cut", 64, 45, 0)
	if _, err := client.WriteBatch([]Message{train}); err != nil {
		t.Fatal(err)
	}
	ms := mkMsgs(16, 2048)
	sameDatagrams(t, readMsgs(t, server, ms, 45), dgs[:45])
	quiet(t, server, ms)
	if st, _ := RxStatsOf(server); st.Trains != 1 || st.TrainSegs != 64 || st.CutSegs != 19 {
		t.Fatalf("RxStats %+v, want 1 train of 64 segments, 19 cut", st)
	}
}

// TestMmsgGROTrainsSplitInOrder sends plain datagrams around two trains
// into an mmsg socket whose slots hold a train, read three slots at a
// time: the datagrams come out in order, the first read's leading plain
// datagram in place, the rest through the splitter, and leftovers without
// a syscall.
func TestMmsgGROTrainsSplitInOrder(t *testing.T) {
	server, client := groServer(t, MaxTrainBytes)
	if !server.RxStats().GRO {
		t.Skip("the kernel does not take UDP_GRO")
	}
	ms := mkMsgs(3, MaxTrainBytes)
	t1, d1 := trainOf("first", 5, 8, 3)
	t2, d2 := trainOf("second", 7, 6, 0)
	batch := []Message{{Buf: []byte("p0"), N: 2}, t1, {Buf: []byte("p1"), N: 2}, t2}
	if _, err := client.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	want := append(append(append([]string{"p0"}, d1...), "p1"), d2...)
	sameDatagrams(t, readMsgs(t, server, ms, len(want)), want)
	// Reads of 3, 3 and 1 (the first train's tail, then p1) and of 3, 3
	// and 1 of the second train: one recvmmsg call per train.
	if server.recvs != 2 {
		t.Errorf("%d recvmmsg calls, want 2", server.recvs)
	}
	quiet(t, server, ms)
	if st := server.RxStats(); st.Trains != 2 || st.TrainSegs != 12 || st.CutSegs != 0 {
		t.Errorf("RxStats %+v, want 2 trains of 12 segments, none cut", st)
	}
}

// TestMmsgGROCutTrainCounted shrinks the slots after the socket took
// GRO: MSG_TRUNC reports the train's full length, so the two 45 B
// segments a 100 B slot holds whole come out and the other eight are
// counted cut.
func TestMmsgGROCutTrainCounted(t *testing.T) {
	server, client := groServer(t, MaxTrainBytes)
	if !server.RxStats().GRO {
		t.Skip("the kernel does not take UDP_GRO")
	}
	train, dgs := trainOf("cut", 10, 45, 0)
	if _, err := client.WriteBatch([]Message{train}); err != nil {
		t.Fatal(err)
	}
	ms := mkMsgs(4, 100)
	sameDatagrams(t, readMsgs(t, server, ms, 2), dgs[:2])
	quiet(t, server, ms)
	if st := server.RxStats(); st.Trains != 1 || st.TrainSegs != 10 || st.CutSegs != 8 {
		t.Fatalf("RxStats %+v, want 1 train of 10 segments, 8 cut", st)
	}
}

// TestMmsgGROOffForSmallSlots: slots that cannot hold the largest train
// (incdnsd's 4 KiB) keep the socket per datagram, so the kernel splits
// trains before they are queued and none can be cut.
func TestMmsgGROOffForSmallSlots(t *testing.T) {
	server, client := groServer(t, 4096)
	train, dgs := trainOf("small", 5, 8, 0)
	if _, err := client.WriteBatch([]Message{train}); err != nil {
		t.Fatal(err)
	}
	ms := mkMsgs(8, 4096)
	sameDatagrams(t, readMsgs(t, server, ms, 5), dgs)
	quiet(t, server, ms)
	if st := server.RxStats(); st != (RxStats{}) {
		t.Fatalf("RxStats %+v with 4 KiB slots, want GRO off and no trains", st)
	}
}
