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
// for at most its budget (clipped to the read deadline); everything
// else parks on the CQ eventfd, and a deadline set from another
// goroutine wakes the park.

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
		// Each datagram is sent once the reader is waiting for it, and the
		// budget is far beyond scheduling noise, so every owned wait ends
		// with data, not when the budget runs out.
		p.u.budget = 2 * time.Second
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
	bothUringReaders(t, func(t *testing.T, p *waitPair, owned bool) {
		p.u.budget = 2 * time.Second // as in the mmsg twin
		arrivalDuringWaitIsReturnedByThatRead(t, p, owned)
	})
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
		p.u.budget = 2 * time.Second // the train lands inside the owned wait
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

// With no read deadline an owned reader still waits on its thread after
// a productive read, for its budget and no longer, and then parks until
// a datagram comes.
func TestUringWaitNoDeadlineWaitsOneBudgetThenParks(t *testing.T) {
	p := newUringWaitPair(t)
	p.reader(true, func() {
		p.u.budget = 5 * time.Millisecond
		p.readOne()
		_ = p.bc.SetReadDeadline(time.Time{})
		waits, parks := p.waits(), p.parks()
		parked := make(chan time.Duration, 1)
		start := time.Now()
		afterCount(p.parks, func() {
			parked <- time.Since(start)
			p.send()
		})
		if n, err := p.bc.ReadBatch(p.ms); n != 1 || err != nil {
			t.Errorf("ReadBatch = %d, %v; want 1, nil", n, err)
			return
		}
		waits, parks = p.waits()-waits, p.parks()-parks
		if waits != 1 || parks == 0 {
			t.Errorf("no deadline: %d on-thread waits, %d parks; want 1, >0", waits, parks)
		}
		if took := <-parked; took < p.u.budget || took > p.u.budget+slack {
			t.Errorf("parked %v after the read began, want within [%v, %v]", took, p.u.budget, p.u.budget+slack)
		}
	})
}

// wakeBound is how soon a deadline set from another goroutine must
// release a reader parked on the CQ eventfd.
const wakeBound = 10 * time.Millisecond

// A parked reader waits on its deadline alone, with no periodic tick,
// so a deadline set from another goroutine must wake it, whether it
// parked with no deadline or a far one. The fastest of three rounds is
// judged, so one round a loaded machine delays does not fail it.
func TestUringWaitDeadlineFromAnotherGoroutineWakesParkedReader(t *testing.T) {
	bothUringReaders(t, func(t *testing.T, p *waitPair, _ bool) {
		// A reader nothing wakes would sleep for good: the watchdog
		// closes the conn under it, which fails the read instead.
		defer time.AfterFunc(2*time.Second, func() { _ = p.bc.Close() }).Stop()
		p.readOne()
		for _, state := range []string{"no deadline", "a far deadline"} {
			fastest := time.Hour
			for round := 0; round < 3; round++ {
				var dl time.Time
				if state == "a far deadline" {
					dl = time.Now().Add(5 * time.Second)
				}
				_ = p.bc.SetReadDeadline(dl)
				released := make(chan time.Time, 1)
				afterCount(p.parks, func() {
					time.Sleep(time.Millisecond) // into the park, past a spurious wake
					now := time.Now()
					_ = p.bc.SetReadDeadline(now)
					released <- now
				})
				n, err := p.bc.ReadBatch(p.ms)
				if n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Errorf("%s: ReadBatch = %d, %v; want 0, deadline exceeded", state, n, err)
					return
				}
				fastest = min(fastest, time.Since(<-released))
			}
			if fastest > wakeBound {
				t.Errorf("%s: a parked reader released %v after SetReadDeadline(now) at best of 3, want under %v", state, fastest, wakeBound)
			}
		}
	})
}

func TestUringWaitCloseDuringOnThreadWait(t *testing.T) {
	p := newUringWaitPair(t)
	p.reader(true, func() {
		const d = 100 * time.Millisecond
		p.u.budget = d // the reader is still inside its wait when Close runs
		p.readOne()
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
