package dataplane

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incod/internal/netio"
)

// newBatchedEngine opens a reuseport group on loopback and builds a
// batched engine over it, skipping when the platform cannot open the
// group.
func newBatchedEngine(t *testing.T, sockets int, h Handler, cfg Config) *Engine {
	t.Helper()
	conns, err := netio.ListenReusePortGroup("udp4", "127.0.0.1:0", sockets)
	if err != nil {
		t.Skipf("reuseport group unavailable: %v", err)
	}
	return NewBatchedConns(conns, batchConns(conns), h, cfg)
}

// batchConns wraps each socket in the default batched rung.
func batchConns(conns []net.PacketConn) []netio.BatchConn {
	bcs := make([]netio.BatchConn, len(conns))
	for i, c := range conns {
		bcs[i] = netio.NewBatchConn(c)
	}
	return bcs
}

// echoClient round-trips msgs distinct payloads against addr with
// retries (UDP may drop), failing the test on a lost echo.
func echoClient(t *testing.T, addr, prefix string, msgs int) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	buf := make([]byte, 2048)
	for m := 0; m < msgs; m++ {
		msg := fmt.Sprintf("%s-m%d", prefix, m)
		want := "echo:" + msg
		ok := false
		for attempt := 0; attempt < 5 && !ok; attempt++ {
			if _, err := conn.Write([]byte(msg)); err != nil {
				t.Error(err)
				return
			}
			conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			n, err := conn.Read(buf)
			if err == nil && bytes.Equal(buf[:n], []byte(want)) {
				ok = true
			}
		}
		if !ok {
			t.Errorf("client %s: no echo for %q", prefix, msg)
			return
		}
	}
}

var echoHandler = HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) {
	*scratch = append((*scratch)[:0], "echo:"...)
	*scratch = append(*scratch, in...)
	return *scratch, true
})

func TestBatchedEngineEchoOverLoopback(t *testing.T) {
	e := newBatchedEngine(t, 2, echoHandler, Config{Name: "test-batched"})
	e.Start()
	defer e.Close()

	const clients, msgs = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			echoClient(t, e.LocalAddr().String(), fmt.Sprintf("c%d", c), msgs)
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := e.Snapshot()
	if st.Mode != "batched" || st.Sockets != 2 {
		t.Fatalf("mode=%q sockets=%d, want batched/2", st.Mode, st.Sockets)
	}
	if st.Handled < clients*msgs {
		t.Fatalf("handled %d, want >= %d", st.Handled, clients*msgs)
	}
	if st.ReadBatches == 0 || st.WriteBatches == 0 {
		t.Fatalf("batch syscall counters not advancing: %+v", st)
	}
	if st.RxPerRead < 1 || st.TxPerWrite < 1 {
		t.Fatalf("amortization ratios below 1: rx=%.2f tx=%.2f", st.RxPerRead, st.TxPerWrite)
	}
}

// batchingEcho is an echo handler that records the batch sizes it was
// handed through the BatchHandler interface.
type batchingEcho struct {
	batches atomic.Uint64
	items   atomic.Uint64
}

func (b *batchingEcho) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	return echoHandler(in, scratch)
}

func (b *batchingEcho) HandleBatch(items []*BatchItem) {
	b.batches.Add(1)
	b.items.Add(uint64(len(items)))
	for _, it := range items {
		out, _ := echoHandler(it.In, it.Scratch)
		it.Out = out
	}
}

// halfFastPath is a BatchFastPath that consumes datagrams with an odd
// trailing byte, replying "tier:<payload>", and records batch calls.
type halfFastPath struct {
	batches atomic.Uint64
}

func (f *halfFastPath) TryHandleDatagram(in []byte, _ netip.AddrPort, scratch *[]byte) ([]byte, bool, bool) {
	if len(in) == 0 || in[len(in)-1]%2 == 0 {
		return nil, false, false
	}
	*scratch = append((*scratch)[:0], "tier:"...)
	*scratch = append(*scratch, in...)
	return *scratch, true, true
}

func (f *halfFastPath) TryHandleBatch(items []*BatchItem) {
	f.batches.Add(1)
	for _, it := range items {
		// Items must each own their scratch: encode through the same
		// per-item path the engine promises.
		if out, served, reply := f.TryHandleDatagram(it.In, it.Src, it.Scratch); served {
			it.Served = true
			if reply {
				it.Out = out
			}
		}
	}
}

func TestBatchedEngineBatchHandlerAndBatchFastPath(t *testing.T) {
	h := &batchingEcho{}
	e := newBatchedEngine(t, 2, h, Config{Name: "test-batchiface"})
	fp := &halfFastPath{}
	e.SetFastPath(fp)
	e.Start()
	defer e.Close()

	conn, err := net.Dial("udp", e.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 2048)
	tierReplies, hostReplies := 0, 0
	const msgs = 40
	for m := 0; m < msgs; m++ {
		msg := fmt.Sprintf("m%d", m) // trailing digit alternates parity
		var reply string
		for attempt := 0; attempt < 5 && reply == ""; attempt++ {
			if _, err := conn.Write([]byte(msg)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			if n, err := conn.Read(buf); err == nil {
				reply = string(buf[:n])
			}
		}
		switch reply {
		case "tier:" + msg:
			tierReplies++
		case "echo:" + msg:
			hostReplies++
		default:
			t.Fatalf("message %q: bad reply %q", msg, reply)
		}
	}
	if tierReplies == 0 || hostReplies == 0 {
		t.Fatalf("want a mix of tier and host replies, got %d/%d", tierReplies, hostReplies)
	}
	if h.batches.Load() == 0 {
		t.Fatal("BatchHandler.HandleBatch never called")
	}
	if fp.batches.Load() == 0 {
		t.Fatal("BatchFastPath.TryHandleBatch never called")
	}
	st := e.Snapshot()
	if st.Offloaded == 0 || st.Offloaded != uint64(tierReplies) {
		t.Fatalf("offloaded=%d, want %d", st.Offloaded, tierReplies)
	}
}

func TestBatchedEngineBarrierAndClose(t *testing.T) {
	e := newBatchedEngine(t, 2, echoHandler, Config{Name: "test-barrier"})
	e.Start()

	// Barrier against live batched workers must complete promptly even
	// with idle sockets (the queue poll bounds the wait).
	done := make(chan struct{})
	go func() { e.Barrier(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Barrier stuck against idle batched workers")
	}

	echoClient(t, e.LocalAddr().String(), "pre-close", 10)
	e.Close()
	st := e.Snapshot()
	if st.BuffersInFlight != 0 {
		t.Fatalf("%d pooled buffers leaked after Close", st.BuffersInFlight)
	}
	// Closing twice (and a post-close Barrier) must not hang or panic.
	e.Close()
	e.Barrier()
}
