//go:build linux && (amd64 || arm64)

package netio

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// The uring twin of mmsg_wait_test.go: the same waitPair, over a ring.
// An owned reader waits on its thread directly after a productive read,
// until its read deadline; everything else parks on the CQ eventfd.

func newUringWaitPair(t *testing.T) *waitPair {
	t.Helper()
	if err := ProbeUring(); err != nil {
		t.Skipf("io_uring unavailable: %v", err)
	}
	spc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewUringConn(spc, UringConfig{Entries: 8, Buffers: 16, BufSize: 2048})
	if err != nil {
		_ = spc.Close()
		t.Fatalf("NewUringConn: %v", err)
	}
	p := &waitPair{t: t, bc: bc, u: bc.(*uringConn)}
	p.dial(spc.LocalAddr())
	return p
}

func bothUringReaders(t *testing.T, fn func(t *testing.T, p *waitPair, owned bool)) {
	bothReadersOf(t, newUringWaitPair, fn)
}

func TestUringWaitIdleOwnedReaderParks(t *testing.T) {
	p := newUringWaitPair(t)
	p.reader(true, func() {
		p.readOne()
		waits, parks := p.waits(), p.parks()
		const idleReads = 5
		for i := 0; i < idleReads; i++ {
			_ = p.bc.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
			if n, err := p.bc.ReadBatch(p.ms); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("idle read %d = %d, %v; want 0, deadline exceeded", i, n, err)
			}
		}
		waits, parks = p.waits()-waits, p.parks()-parks
		if waits != 1 {
			t.Errorf("%d on-thread waits over %d idle reads after one productive read, want 1", waits, idleReads)
		}
		if parks < idleReads-1 {
			// The first idle read's wait on its thread runs to the
			// deadline; it may or may not park for the last instant.
			t.Errorf("%d eventfd parks over %d idle reads, want every idle read after the first to park", parks, idleReads)
		}
	})
}

func TestUringWaitPacedStreamPaths(t *testing.T) {
	bothUringReaders(t, func(t *testing.T, p *waitPair, owned bool) {
		// Each datagram is sent once the reader is waiting for it, under a
		// deadline far beyond scheduling noise, so every owned wait ends
		// with data, not at the deadline.
		p.readOne()
		waits, parks := p.waits(), p.parks()
		ctr := p.parks
		if owned {
			ctr = p.waits
		}
		const stream = 50
		for i := 0; i < stream; i++ {
			afterCount(ctr, p.send)
			_ = p.bc.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := p.bc.ReadBatch(p.ms); n != 1 || err != nil {
				t.Fatalf("read %d = %d, %v; want 1, nil", i, n, err)
			}
		}
		waits, parks = p.waits()-waits, p.parks()-parks
		if owned && (waits != stream || parks != 0) {
			t.Errorf("owned reader: %d on-thread waits, %d parks over %d paced reads; want %d, 0", waits, parks, stream, stream)
		}
		if !owned && (waits != 0 || parks < stream) {
			t.Errorf("ordinary reader: %d on-thread waits, %d parks over %d paced reads; want 0, >= %d", waits, parks, stream, stream)
		}
	})
}

func TestUringWaitArrivalDuringWaitIsReturnedByThatRead(t *testing.T) {
	bothUringReaders(t, arrivalDuringWaitIsReturnedByThatRead)
}

// A GRO train that lands during the wait comes out of that same read, as
// many of its datagrams as the slots hold; the rest go out at the next
// read without a wait.
func TestUringWaitTrainArrivingDuringWait(t *testing.T) {
	if err := ProbeGSO(); err != nil {
		t.Skipf("no UDP_SEGMENT trains to send: %v", err)
	}
	bothUringReaders(t, func(t *testing.T, p *waitPair, owned bool) {
		if !p.u.RxStats().GRO {
			t.Skip("the kernel does not take UDP_GRO")
		}
		p.readOne()
		train, want := trainOf("uwait", 6, 8, 0)
		sender := NewBatchConn(p.client.(*net.UDPConn))
		waits, parks := p.waits(), p.parks()
		ctr := p.parks
		if owned {
			ctr = p.waits
		}
		afterCount(ctr, func() {
			if _, err := sender.WriteBatch([]Message{train}); err != nil {
				t.Error(err)
			}
		})
		_ = p.bc.SetReadDeadline(time.Now().Add(5 * time.Second))
		var got []string
		for _, wantN := range []int{4, 2} {
			n, err := p.bc.ReadBatch(p.ms)
			if n != wantN || err != nil {
				t.Fatalf("ReadBatch = %d, %v; want %d, nil", n, err, wantN)
			}
			for _, m := range p.ms[:n] {
				got = append(got, string(m.Buf[:m.N]))
			}
		}
		sameDatagrams(t, got, want)
		if st := p.u.RxStats(); st.Trains != 1 {
			t.Errorf("RxStats %+v, want the train to have arrived as one", st)
		}
		waits, parks = p.waits()-waits, p.parks()-parks
		if owned && (waits != 1 || parks != 0) {
			t.Errorf("owned reader: %d on-thread waits, %d parks; want 1, 0", waits, parks)
		}
		if !owned && waits != 0 {
			t.Errorf("ordinary reader: %d on-thread waits, want 0", waits)
		}
	})
}

func TestUringWaitEmptySocketTimesOutAtTheDeadline(t *testing.T) {
	bothUringReaders(t, emptySocketTimesOutAtTheDeadline)
}

func TestUringWaitNoDeadlineNoOnThreadWait(t *testing.T) {
	p := newUringWaitPair(t)
	p.reader(true, func() {
		p.readOne()
		waits, parks := p.waits(), p.parks()
		_ = p.bc.SetReadDeadline(time.Time{})
		afterCount(p.parks, p.send)
		if n, err := p.bc.ReadBatch(p.ms); n != 1 || err != nil {
			t.Fatalf("ReadBatch = %d, %v; want 1, nil", n, err)
		}
		waits, parks = p.waits()-waits, p.parks()-parks
		if waits != 0 || parks == 0 {
			t.Errorf("no deadline: %d on-thread waits, %d parks; want 0, >0", waits, parks)
		}
	})
}

func TestUringWaitCloseDuringOnThreadWait(t *testing.T) {
	p := newUringWaitPair(t)
	p.reader(true, func() {
		p.readOne()
		const d = 100 * time.Millisecond
		_ = p.bc.SetReadDeadline(time.Now().Add(d))
		closed := make(chan time.Duration, 1)
		afterCount(p.waits, func() {
			start := time.Now()
			_ = p.bc.Close()
			closed <- time.Since(start)
		})
		n, err := p.bc.ReadBatch(p.ms)
		if n != 0 || !errors.Is(err, net.ErrClosed) {
			t.Errorf("ReadBatch = %d, %v; want 0, %v", n, err, net.ErrClosed)
		}
		select {
		case took := <-closed:
			if took > d+slack {
				t.Errorf("Close took %v against a reader waiting on its thread, deadline %v", took, d)
			}
		case <-time.After(time.Second):
			t.Fatal("the reader never waited on its thread, so nothing closed the conn")
		}
		if w := p.u.waiters.Load(); w != 0 {
			t.Errorf("%d waiters left after Close", w)
		}
	})
}
