package netio

import (
	"fmt"
	"net"
	"sort"
	"testing"
	"time"
)

func TestMessageSegments(t *testing.T) {
	cases := []struct {
		n, segSize, want int
	}{
		{n: 100, segSize: 0, want: 1},   // plain datagram
		{n: 100, segSize: 100, want: 1}, // segSize >= N is not a train
		{n: 100, segSize: 200, want: 1},
		{n: 100, segSize: 25, want: 4}, // exact split
		{n: 100, segSize: 30, want: 4}, // short final segment
		{n: 1, segSize: 1, want: 1},
		{n: 0, segSize: 16, want: 1},
	}
	for _, c := range cases {
		m := Message{N: c.n, SegSize: c.segSize}
		if got := m.Segments(); got != c.want {
			t.Errorf("Segments(N=%d, SegSize=%d) = %d, want %d", c.n, c.segSize, got, c.want)
		}
	}
}

// trainTestBatch builds a mixed write batch — plain datagrams around two
// trains (one exact-split, one with a short tail) — and the multiset of
// wire datagrams any correct transmit path must produce from it.
func trainTestBatch(dst net.Addr) (ms []Message, wire []string) {
	ap, _ := AddrPortOf(dst)
	add := func(payload string, segSize int) {
		ms = append(ms, Message{Buf: []byte(payload), N: len(payload), Src: ap, SegSize: segSize})
		if segSize <= 0 || segSize >= len(payload) {
			wire = append(wire, payload)
			return
		}
		for off := 0; off < len(payload); off += segSize {
			end := min(off+segSize, len(payload))
			wire = append(wire, payload[off:end])
		}
	}
	add("plain-head", 0)
	add("AAAAAAAAbbbbbbbbCCCCCCCCdddddddd", 8) // 4 equal segments
	add("0123456789-0123456789-tail", 10)      // 2 full + 6-byte tail
	add("plain-tail", 0)
	return ms, wire
}

// refusedTrainSegs is the segment count of a train no kernel takes whole:
// above UDP_MAX_SEGMENTS, which is 64 on older kernels and 128 on newer.
const refusedTrainSegs = 200

// refusedTrainBatch is trainTestBatch plus one train of refusedTrainSegs
// distinct 2-byte segments, which the kernel refuses with EINVAL and a
// correct rung must unroll.
func refusedTrainBatch(dst net.Addr) (ms []Message, wire []string) {
	ms, wire = trainTestBatch(dst)
	ap, _ := AddrPortOf(dst)
	buf := make([]byte, 0, 2*refusedTrainSegs)
	for i := 0; i < refusedTrainSegs; i++ {
		seg := fmt.Sprintf("%02x", i)
		buf = append(buf, seg...)
		wire = append(wire, seg)
	}
	ms = append(ms, Message{Buf: buf, N: len(buf), Src: ap, SegSize: 2})
	return ms, wire
}

// collectDatagrams reads want datagrams off a plain UDP socket.
func collectDatagrams(t *testing.T, pc net.PacketConn, want int) []string {
	t.Helper()
	_ = pc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	var got []string
	for len(got) < want {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			t.Fatalf("after %d/%d datagrams: %v", len(got), want, err)
		}
		got = append(got, string(buf[:n]))
	}
	return got
}

// TestTrainTxAcrossRungs sends the same batches through every transport
// rung and asserts the receiver — a plain UDP socket, i.e. no GRO — sees
// the identical per-datagram wire image, with the telemetry reporting
// truthfully whether trains were coalesced or unrolled. The "refused"
// batch adds a train the kernel will not take whole: every rung must
// still put each of its datagrams on the wire, as one fallback.
func TestTrainTxAcrossRungs(t *testing.T) {
	rungs := []struct {
		name  string
		build func(pc net.PacketConn) (BatchConn, error)
	}{
		{"single", func(pc net.PacketConn) (BatchConn, error) { return NewSingleConn(pc), nil }},
		{"auto", func(pc net.PacketConn) (BatchConn, error) { return NewBatchConn(pc), nil }},
		{"uring", func(pc net.PacketConn) (BatchConn, error) {
			if err := ProbeUring(); err != nil {
				return nil, err
			}
			return NewUringConn(pc, UringConfig{})
		}},
	}
	inputs := []trainTxInput{
		{"mixed", trainTestBatch, 2, 7, 0},
		{"refused", refusedTrainBatch, 2, 7, 1},
	}
	for _, rung := range rungs {
		t.Run(rung.name, func(t *testing.T) {
			for _, in := range inputs {
				t.Run(in.name, func(t *testing.T) {
					srv, err := net.ListenPacket("udp4", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					defer srv.Close()
					// Room for every datagram of the refused train at once.
					if err := srv.(*net.UDPConn).SetReadBuffer(1 << 20); err != nil {
						t.Fatal(err)
					}
					spc, err := net.ListenPacket("udp4", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					bc, err := rung.build(spc)
					if err != nil {
						_ = spc.Close()
						t.Skipf("%s rung unavailable: %v", rung.name, err)
					}
					defer bc.Close()
					checkTrainTx(t, bc, srv, in)
				})
			}
		})
	}
}

// trainTxInput is one batch of TestTrainTxAcrossRungs and what a rung
// must report for it: trains and segs are what a GSO rung coalesces,
// refused the trains every rung unrolls.
type trainTxInput struct {
	name                  string
	batch                 func(dst net.Addr) ([]Message, []string)
	trains, segs, refused uint64
}

// checkTrainTx writes in's batch through bc, then checks the wire image
// read off srv and bc's TxStats.
func checkTrainTx(t *testing.T, bc BatchConn, srv net.PacketConn, in trainTxInput) {
	t.Helper()
	trains, segs, refused := in.trains, in.segs, in.refused
	ms, wire := in.batch(srv.LocalAddr())
	if n, err := bc.WriteBatch(ms); err != nil || n != len(ms) {
		t.Fatalf("WriteBatch = %d, %v; want %d", n, err, len(ms))
	}
	got := collectDatagrams(t, srv, len(wire))
	sort.Strings(got)
	want := append([]string(nil), wire...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wire datagram %d = %q, want %q\n(train mis-split?)", i, got[i], want[i])
		}
	}

	st, ok := TxStatsOf(bc)
	if !ok {
		t.Fatalf("rung %s reports no TxStats", BackendOf(bc))
	}
	// Conservation: every train either rode as one coalesced send or was
	// unrolled — never both, never neither.
	if st.Trains+st.Fallbacks != trains+refused {
		t.Fatalf("Trains=%d + Fallbacks=%d, want %d total", st.Trains, st.Fallbacks, trains+refused)
	}
	switch backend := BackendOf(bc); backend {
	case "single":
		if st.Trains != 0 || st.Fallbacks != trains+refused {
			t.Fatalf("single rung: %+v, want every train unrolled", st)
		}
	default:
		if ProbeGSO() == nil {
			if st.Trains != trains || st.TrainSegs != segs || st.Fallbacks != refused {
				t.Fatalf("%s rung with working GSO: %+v, want %d coalesced trains / %d segs, %d unrolled",
					backend, st, trains, segs, refused)
			}
		}
		// When the probe fails the conn may still coalesce (the
		// INCOD_NO_GSOTX env var disables the probe, not the kernel);
		// conservation above is the only portable claim.
	}
}

// TestTrainConnectedSocket covers the load generator's shape: a
// connected client socket sending trains with a zero Src.
func TestTrainConnectedSocket(t *testing.T) {
	srv, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cc, err := net.Dial("udp4", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	bc := NewBatchConn(cc.(*net.UDPConn))
	defer bc.Close()

	payload := []byte("seg-1!!!seg-2!!!seg-3!!!")
	ms := []Message{{Buf: payload, N: len(payload), SegSize: 8}}
	if n, err := bc.WriteBatch(ms); err != nil || n != 1 {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	got := collectDatagrams(t, srv, 3)
	for i, want := range []string{"seg-1!!!", "seg-2!!!", "seg-3!!!"} {
		found := false
		for _, g := range got {
			if g == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("segment %d (%q) missing from %q", i, want, got)
		}
	}
}

// TestProbeGSOCached asserts the probe is stable across calls (it is
// cached) and agrees with itself.
func TestProbeGSOCached(t *testing.T) {
	first := ProbeGSO()
	second := ProbeGSO()
	if (first == nil) != (second == nil) {
		t.Fatalf("ProbeGSO flapped: %v then %v", first, second)
	}
	t.Logf("ProbeGSO: %v", first)
}

func BenchmarkWriteBatchTrains(b *testing.B) {
	if err := ProbeGSO(); err != nil {
		b.Skipf("GSO unavailable: %v", err)
	}
	srv, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	go func() { // drain so the socket buffer never backs up
		buf := make([]byte, 2048)
		for {
			if _, _, err := srv.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	cc, err := net.Dial("udp4", srv.LocalAddr().String())
	if err != nil {
		b.Fatal(err)
	}
	bc := NewBatchConn(cc.(*net.UDPConn))
	defer bc.Close()

	const segs, segSize = 32, 100
	train := make([]byte, segs*segSize)
	for i := range train {
		train[i] = byte(i)
	}
	ms := []Message{{Buf: train, N: len(train), SegSize: segSize}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.WriteBatch(ms); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st, _ := TxStatsOf(bc); st.Fallbacks > 0 {
		b.Logf("warning: %d trains fell back per-datagram", st.Fallbacks)
	}
	b.SetBytes(int64(len(train)))
}
