//go:build linux && (amd64 || arm64)

package netio

import (
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// waitPair is an mmsg server conn and a connected client socket on
// loopback. The tests drive the server's ReadBatch from a goroutine that
// is, or is not, locked to its thread.
type waitPair struct {
	t      *testing.T
	c      *mmsgConn
	client net.Conn
	ms     []Message
}

func newWaitPair(t *testing.T) *waitPair {
	t.Helper()
	spc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := newMmsgConn(spc).(*mmsgConn)
	if c == nil {
		t.Fatal("no mmsg conn over a UDP socket")
	}
	client, err := net.Dial("udp4", spc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); c.Close() })
	return &waitPair{t: t, c: c, client: client, ms: mkMsgs(4, 512)}
}

// reader runs fn on a fresh goroutine and waits for it. With owned set
// the goroutine locks itself to its thread for good (the thread dies with
// it) and says so to the conn first, as a pinned shard worker does.
func (p *waitPair) reader(owned bool, fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if owned {
			runtime.LockOSThread()
			p.c.OwnThread()
		}
		fn()
	}()
	<-done
}

func (p *waitPair) send() {
	p.t.Helper()
	if _, err := p.client.Write([]byte("x")); err != nil {
		p.t.Error(err)
	}
}

// readOne sends a datagram and reads it: a productive read, after which
// an owned reader's next wait is on its thread.
func (p *waitPair) readOne() {
	p.t.Helper()
	p.send()
	_ = p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := p.c.ReadBatch(p.ms); n != 1 || err != nil {
		p.t.Errorf("productive read = %d, %v; want 1, nil", n, err)
	}
}

// afterCount calls fn once *ctr has moved past from.
func afterCount(ctr interface{ Load() uint64 }, from uint64, fn func()) {
	go func() {
		for ctr.Load() == from {
			time.Sleep(20 * time.Microsecond)
		}
		fn()
	}()
}

func bothReaders(t *testing.T, fn func(t *testing.T, p *waitPair, owned bool)) {
	for _, owned := range []bool{true, false} {
		name := "goroutine"
		if owned {
			name = "owned-thread"
		}
		t.Run(name, func(t *testing.T) {
			p := newWaitPair(t)
			p.reader(owned, func() { fn(t, p, owned) })
		})
	}
}

// slack is how late a deadline may fire on a loaded CI machine.
const slack = 50 * time.Millisecond

func TestMmsgWaitEmptySocketTimesOutAtTheDeadline(t *testing.T) {
	bothReaders(t, func(t *testing.T, p *waitPair, _ bool) {
		p.readOne()
		// First right after a productive read, then after a timeout.
		for _, state := range []string{"after a productive read", "after a timeout"} {
			const d = 30 * time.Millisecond
			start := time.Now()
			_ = p.c.SetReadDeadline(start.Add(d))
			n, err := p.c.ReadBatch(p.ms)
			took := time.Since(start)
			if n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s: ReadBatch = %d, %v; want 0, deadline exceeded", state, n, err)
			}
			if took < d || took > d+slack {
				t.Errorf("%s: timed out after %v, want within [%v, %v]", state, took, d, d+slack)
			}
		}
	})
}

func TestMmsgWaitDeadlineFromAnotherGoroutineReleasesReader(t *testing.T) {
	bothReaders(t, func(t *testing.T, p *waitPair, _ bool) {
		p.readOne()
		for _, state := range []string{"after a productive read", "after a timeout"} {
			_ = p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
			// The reader counts a park just before it blocks in the
			// netpoller, in both states (an owned reader's on-thread wait
			// times out first).
			released := make(chan time.Time, 1)
			afterCount(&p.c.parks, p.c.parks.Load(), func() {
				now := time.Now()
				_ = p.c.SetReadDeadline(now)
				released <- now
			})
			n, err := p.c.ReadBatch(p.ms)
			if n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s: ReadBatch = %d, %v; want 0, deadline exceeded", state, n, err)
			}
			if late := time.Since(<-released); late > slack {
				t.Errorf("%s: reader released %v after SetReadDeadline(now)", state, late)
			}
		}
	})
}

func TestMmsgWaitDeadlineDuringOnThreadWait(t *testing.T) {
	p := newWaitPair(t)
	p.reader(true, func() {
		// A deadline moved to now while the reader is inside ppoll takes
		// effect when the budget runs out: late by one budget at most. The
		// budget is stretched so that the reader is still inside.
		p.c.budget = 20 * time.Millisecond
		p.readOne()
		_ = p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		released := make(chan time.Time, 1)
		afterCount(&p.c.threadWaits, p.c.threadWaits.Load(), func() {
			now := time.Now()
			_ = p.c.SetReadDeadline(now)
			released <- now
		})
		n, err := p.c.ReadBatch(p.ms)
		if n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("ReadBatch = %d, %v; want 0, deadline exceeded", n, err)
		}
		if late := time.Since(<-released); late > p.c.budget+slack {
			t.Errorf("reader released %v after SetReadDeadline(now), budget %v", late, p.c.budget)
		}
	})
}

func TestMmsgWaitArrivalDuringWaitIsReturnedByThatRead(t *testing.T) {
	bothReaders(t, func(t *testing.T, p *waitPair, owned bool) {
		// A budget far beyond scheduling noise: the owned reader is still
		// inside its on-thread wait when the datagram arrives.
		p.c.budget = 2 * time.Second
		p.readOne()
		waits, parks := p.c.threadWaits.Load(), p.c.parks.Load()
		ctr := &p.c.parks
		if owned {
			ctr = &p.c.threadWaits
		}
		afterCount(ctr, ctr.Load(), p.send)
		_ = p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := p.c.ReadBatch(p.ms); n != 1 || err != nil {
			t.Fatalf("ReadBatch = %d, %v; want the datagram that arrived during the wait", n, err)
		}
		waits, parks = p.c.threadWaits.Load()-waits, p.c.parks.Load()-parks
		if owned && (waits != 1 || parks != 0) {
			t.Errorf("owned reader: %d on-thread waits, %d parks; want 1, 0", waits, parks)
		}
		if !owned && (waits != 0 || parks == 0) {
			t.Errorf("ordinary reader: %d on-thread waits, %d parks; want 0, >0", waits, parks)
		}
	})
}

// A deadline that was armed for a park which then succeeded must not
// outlive it: the next read, under a fresh deadline, starts after the
// old one has passed and must still see its datagram.
func TestMmsgWaitNoSpuriousTimeoutAfterSuccessfulPark(t *testing.T) {
	bothReaders(t, func(t *testing.T, p *waitPair, _ bool) {
		const old = 20 * time.Millisecond
		afterCount(&p.c.parks, p.c.parks.Load(), p.send)
		_ = p.c.SetReadDeadline(time.Now().Add(old))
		if n, err := p.c.ReadBatch(p.ms); n != 1 || err != nil {
			t.Fatalf("parked read = %d, %v; want 1, nil", n, err)
		}
		_ = p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		time.Sleep(old + 5*time.Millisecond)
		p.send()
		if n, err := p.c.ReadBatch(p.ms); n != 1 || err != nil {
			t.Fatalf("read after the old deadline passed = %d, %v; want 1, nil", n, err)
		}
	})
}

func TestMmsgWaitIdleOwnedReaderParks(t *testing.T) {
	p := newWaitPair(t)
	p.reader(true, func() {
		p.readOne()
		waits, parks := p.c.threadWaits.Load(), p.c.parks.Load()
		const idleReads = 5
		for i := 0; i < idleReads; i++ {
			_ = p.c.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
			if n, err := p.c.ReadBatch(p.ms); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("idle read %d = %d, %v; want 0, deadline exceeded", i, n, err)
			}
		}
		waits, parks = p.c.threadWaits.Load()-waits, p.c.parks.Load()-parks
		if waits != 1 {
			t.Errorf("%d on-thread waits over %d idle reads after one productive read, want 1", waits, idleReads)
		}
		if parks < idleReads {
			t.Errorf("%d netpoller parks over %d idle reads, want every read to park", parks, idleReads)
		}
	})
}

// A read served wholly from the segments an earlier read had no room for
// makes no syscall, and it is a productive read: an owned reader's next
// wait is on its thread.
func TestMmsgWaitPendingGROSegments(t *testing.T) {
	if err := ProbeGSO(); err != nil {
		t.Skipf("no UDP_SEGMENT trains to send: %v", err)
	}
	bothReaders(t, func(t *testing.T, p *waitPair, owned bool) {
		p.ms = mkMsgs(4, MaxTrainBytes) // slots that hold a train: the first read turns GRO on
		p.readOne()
		if !p.c.RxStats().GRO {
			t.Skip("the kernel does not take UDP_GRO")
		}
		train, want := trainOf("wait", 6, 8, 0)
		sender := NewBatchConn(p.client.(*net.UDPConn))
		if _, err := sender.WriteBatch([]Message{train}); err != nil {
			t.Fatal(err)
		}
		_ = p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var got []string
		for _, wantN := range []int{4, 2} {
			recvs := p.c.recvs
			n, err := p.c.ReadBatch(p.ms)
			if n != wantN || err != nil {
				t.Fatalf("ReadBatch = %d, %v; want %d, nil", n, err, wantN)
			}
			if wantN == 2 && p.c.recvs != recvs {
				t.Errorf("the read served from pending segments made %d recvmmsg calls", p.c.recvs-recvs)
			}
			for _, m := range p.ms[:n] {
				got = append(got, string(m.Buf[:m.N]))
			}
		}
		sameDatagrams(t, got, want)
		waits, parks := p.c.threadWaits.Load(), p.c.parks.Load()
		_ = p.c.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
		if n, err := p.c.ReadBatch(p.ms); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read of the drained socket = %d, %v; want 0, deadline exceeded", n, err)
		}
		waits, parks = p.c.threadWaits.Load()-waits, p.c.parks.Load()-parks
		if owned && waits != 1 {
			t.Errorf("owned reader: %d on-thread waits after the pending read, want 1", waits)
		}
		if !owned && (waits != 0 || parks == 0) {
			t.Errorf("ordinary reader: %d on-thread waits, %d parks; want 0, >0", waits, parks)
		}
	})
}

func TestMmsgWaitPacedStreamPaths(t *testing.T) {
	bothReaders(t, func(t *testing.T, p *waitPair, owned bool) {
		// Each datagram is sent once the reader is waiting for it, and the
		// budget is far beyond scheduling noise, so every gap is "under
		// the budget" whatever the machine is doing.
		p.c.budget = 2 * time.Second
		p.readOne()
		waits, parks := p.c.threadWaits.Load(), p.c.parks.Load()
		ctr := &p.c.parks
		if owned {
			ctr = &p.c.threadWaits
		}
		const stream = 50
		for i := 0; i < stream; i++ {
			afterCount(ctr, ctr.Load(), p.send)
			_ = p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := p.c.ReadBatch(p.ms); n != 1 || err != nil {
				t.Fatalf("read %d = %d, %v; want 1, nil", i, n, err)
			}
		}
		waits, parks = p.c.threadWaits.Load()-waits, p.c.parks.Load()-parks
		if owned && (waits != stream || parks != 0) {
			t.Errorf("owned reader: %d on-thread waits, %d parks over %d paced reads; want %d, 0", waits, parks, stream, stream)
		}
		if !owned && waits != 0 {
			t.Errorf("ordinary reader called ppoll %d times", waits)
		}
	})
}
