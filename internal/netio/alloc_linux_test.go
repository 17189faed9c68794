//go:build linux && (amd64 || arm64)

package netio

import (
	"net"
	"runtime"
	"testing"
	"time"
)

// TestBatchedRungsDoNotAllocate holds the batched rungs' syscall paths to
// zero heap allocations per call: a loopback WriteBatch plus ReadBatch
// round on the mmsg rung, a train refused by the kernel and unrolled by
// sendTrainSplit, a train WriteBatch on the uring rung, and a ReadBatch
// on a uring conn whose reader owns its thread and waits on it for each
// datagram. A RawConn callback made per call, or a
// vector the compiler moves to the heap, shows here as allocations per
// run.
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

	// The owned reader: this goroutine stays locked to its thread until
	// the test returns, past the conn's Close. Each round's datagram is
	// sent from the mmsg conn once the reader is waiting on its thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	uc.OwnThread()
	ucc := uc.(*uringConn)
	uself, _ := AddrPortOf(upc.LocalAddr())
	uping := []Message{{Buf: []byte("ping"), N: 4, Src: uself}}
	kick, sent := make(chan uint64), make(chan error)
	defer close(kick)
	go func() {
		for from := range kick {
			for ucc.split.st.threadWaits.Load() == from {
				runtime.Gosched()
			}
			_, err := bc.WriteBatch(uping)
			sent <- err
		}
	}()
	if err := uc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := bc.WriteBatch(uping); err != nil {
		t.Fatal(err)
	}
	if n, err := uc.ReadBatch(in); err != nil || n != 1 {
		t.Fatalf("uring ReadBatch = %d, %v", n, err)
	}
	waits := ucc.split.st.threadWaits.Load()
	const rounds = 200
	if a := testing.AllocsPerRun(rounds, func() {
		kick <- ucc.split.st.threadWaits.Load()
		if n, err := uc.ReadBatch(in); err != nil || n != 1 {
			t.Fatalf("owned uring ReadBatch = %d, %v", n, err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("owned uring ReadBatch after an on-thread wait: %.1f allocs, want 0", a)
	}
	if w := ucc.split.st.threadWaits.Load() - waits; w < rounds {
		t.Fatalf("%d on-thread waits over %d rounds: the check above is vacuous", w, rounds)
	}
}
