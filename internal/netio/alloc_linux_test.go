//go:build linux && (amd64 || arm64)

package netio

import (
	"net"
	"testing"
	"time"
)

// TestBatchedRungsDoNotAllocate holds the batched rungs' syscall paths to
// zero heap allocations per call: a loopback WriteBatch plus ReadBatch
// round on the mmsg rung, a train refused by the kernel and unrolled by
// sendTrainSplit, and a train WriteBatch on the uring rung. A RawConn
// callback made per call, or a vector the compiler moves to the heap,
// shows here as allocations per run.
func TestBatchedRungsDoNotAllocate(t *testing.T) {
	sink, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	dst, _ := AddrPortOf(sink.LocalAddr())

	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bc := NewBatchConn(pc)
	defer bc.Close()
	if b := BackendOf(bc); b != "mmsg" {
		t.Skipf("NewBatchConn gave the %s rung", b)
	}
	self, _ := AddrPortOf(pc.LocalAddr())
	ping := []Message{{Buf: []byte("ping"), N: 4, Src: self}}
	in := mkMsgs(4, 2048)
	if err := bc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		if n, err := bc.WriteBatch(ping); err != nil || n != 1 {
			t.Fatalf("WriteBatch = %d, %v", n, err)
		}
		if n, err := bc.ReadBatch(in); err != nil || n != 1 {
			t.Fatalf("ReadBatch = %d, %v", n, err)
		}
	}); a != 0 {
		t.Errorf("mmsg WriteBatch+ReadBatch round: %.1f allocs, want 0", a)
	}

	refused, _ := refusedTrainBatch(sink.LocalAddr())
	refused = refused[len(refused)-1:]
	before, _ := TxStatsOf(bc)
	if a := testing.AllocsPerRun(20, func() {
		if n, err := bc.WriteBatch(refused); err != nil || n != 1 {
			t.Fatalf("WriteBatch(refused train) = %d, %v", n, err)
		}
	}); a != 0 {
		t.Errorf("refused train unroll: %.1f allocs, want 0", a)
	}
	if st, _ := TxStatsOf(bc); st.Fallbacks == before.Fallbacks {
		t.Fatalf("the %d-segment train was never unrolled (%+v): the check above is vacuous", refusedTrainSegs, st)
	}

	if err := ProbeUring(); err != nil {
		t.Logf("uring rung not checked: %v", err)
		return
	}
	upc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	uc, err := NewUringConn(upc, UringConfig{})
	if err != nil {
		_ = upc.Close()
		t.Fatal(err)
	}
	defer uc.Close()
	train := make([]byte, 32*100)
	ms := []Message{{Buf: train, N: len(train), Src: dst, SegSize: 100}}
	if a := testing.AllocsPerRun(200, func() {
		if n, err := uc.WriteBatch(ms); err != nil || n != 1 {
			t.Fatalf("uring WriteBatch(train) = %d, %v", n, err)
		}
	}); a != 0 {
		t.Errorf("uring train WriteBatch: %.1f allocs, want 0", a)
	}
}
