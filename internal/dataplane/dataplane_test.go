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
)

// --- in-memory PacketConn for deterministic engine tests -----------------

type fakePacket struct {
	data []byte
	from net.Addr
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

type fakeConn struct {
	in       chan fakePacket
	errs     chan error
	closed   chan struct{}
	deadline chan struct{}
	closeOne sync.Once
	dlOne    sync.Once

	mu     sync.Mutex
	writes []fakePacket
}

func newFakeConn(buf int) *fakeConn {
	return &fakeConn{
		in:       make(chan fakePacket, buf),
		errs:     make(chan error, buf),
		closed:   make(chan struct{}),
		deadline: make(chan struct{}),
	}
}

func (c *fakeConn) ReadFrom(b []byte) (int, net.Addr, error) {
	// Drain queued packets/errors before honoring deadline or close, so
	// tests get deterministic ordering.
	select {
	case p := <-c.in:
		return copy(b, p.data), p.from, nil
	case err := <-c.errs:
		return 0, nil, err
	default:
	}
	select {
	case p := <-c.in:
		return copy(b, p.data), p.from, nil
	case err := <-c.errs:
		return 0, nil, err
	case <-c.closed:
		return 0, nil, net.ErrClosed
	case <-c.deadline:
		return 0, nil, timeoutErr{}
	}
}

func (c *fakeConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes = append(c.writes, fakePacket{data: append([]byte(nil), b...), from: addr})
	return len(b), nil
}

func (c *fakeConn) writeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.writes)
}

func (c *fakeConn) Close() error {
	c.closeOne.Do(func() { close(c.closed) })
	return nil
}

func (c *fakeConn) LocalAddr() net.Addr { return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9} }

func (c *fakeConn) SetDeadline(t time.Time) error      { return c.SetReadDeadline(t) }
func (c *fakeConn) SetWriteDeadline(t time.Time) error { return nil }
func (c *fakeConn) SetReadDeadline(t time.Time) error {
	if !t.After(time.Now()) {
		c.dlOne.Do(func() { close(c.deadline) })
	}
	return nil
}

var testSrc = &net.UDPAddr{IP: net.IPv4(10, 0, 0, 7), Port: 4242}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// --- dispatch ------------------------------------------------------------

// The single reader queues each datagram by its source (SourceHash):
// one source always lands on one shard, and different sources spread.
func TestShardDispatchDeterminism(t *testing.T) {
	conn := newFakeConn(64)
	e := New(conn, HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) {
		return nil, false
	}), Config{Shards: 8})

	// Pure function: the same source always lands on the same shard.
	for _, src := range []string{"10.0.0.7:4242", "10.0.0.8:4242", "[2001:db8::1]:53"} {
		a := netip.MustParseAddrPort(src)
		want := e.shardIndex(a)
		for i := 0; i < 100; i++ {
			if got := e.shardIndex(a); got != want {
				t.Fatalf("source %s: shard %d then %d", src, want, got)
			}
		}
	}

	// Different sources spread across more than one shard.
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[e.shardIndex(netip.AddrPortFrom(netip.MustParseAddr("10.0.0.7"), uint16(5000+i)))] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 distinct source ports all hashed to one shard")
	}

	// End to end: datagrams from one source, whatever their payloads, are
	// all counted on a single shard.
	e.Start()
	defer e.Close()
	for i := 0; i < 20; i++ {
		conn.in <- fakePacket{data: fmt.Appendf(nil, "get key-%d\r\n", i), from: testSrc}
	}
	waitFor(t, "20 packets received", func() bool { return e.Snapshot().Received == 20 })
	busy := 0
	for _, s := range e.Snapshot().Shards {
		if s.Received > 0 {
			busy++
			if s.Received != 20 {
				t.Fatalf("shard %d received %d of 20", s.Shard, s.Received)
			}
		}
	}
	if busy != 1 {
		t.Fatalf("one source hit %d shards, want 1", busy)
	}
}

func TestSourceHashDeterminism(t *testing.T) {
	a := netip.MustParseAddrPort("10.1.2.3:5000")
	b := netip.MustParseAddrPort("10.1.2.3:5001")
	if SourceHash(nil, a) != SourceHash(nil, a) {
		t.Fatal("SourceHash not deterministic")
	}
	if SourceHash(nil, a) == SourceHash(nil, b) {
		t.Fatal("distinct ports should (overwhelmingly) hash differently")
	}
}

// --- resilience ----------------------------------------------------------

func TestTransientReadErrorsDoNotKillTheEngine(t *testing.T) {
	conn := newFakeConn(16)
	e := New(conn, HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) {
		*scratch = append((*scratch)[:0], in...)
		return *scratch, true
	}), Config{Shards: 1})
	e.Start()
	defer e.Close()

	// An async ICMP-style error, then real traffic: serving continues.
	// The packet is queued only once the error has been read: with both
	// ready, fakeConn.ReadFrom's select would pick either first.
	conn.errs <- fmt.Errorf("read udp: connection refused")
	waitFor(t, "the transient error read", func() bool { return e.Snapshot().ReadErrors == 1 })
	conn.in <- fakePacket{data: []byte("ping"), from: testSrc}
	waitFor(t, "packet served after transient error", func() bool { return conn.writeCount() == 1 })
	st := e.Snapshot()
	if st.ReadErrors != 1 {
		t.Fatalf("ReadErrors = %d, want 1", st.ReadErrors)
	}
	if st.Handled != 1 || st.Replies != 1 {
		t.Fatalf("handled=%d replies=%d, want 1/1", st.Handled, st.Replies)
	}
}

// stringOnlyAddr is a net.Addr that is not *net.UDPAddr: the engine must
// derive the source from String() instead of dispatching a zero source.
type stringOnlyAddr string

func (a stringOnlyAddr) Network() string { return "udp" }
func (a stringOnlyAddr) String() string  { return string(a) }

func TestNonUDPAddrSourceIsDerivedOrDropped(t *testing.T) {
	conn := newFakeConn(16)
	type seen struct {
		src netip.AddrPort
		ok  bool
	}
	got := make(chan seen, 16)
	e := New(conn, sourceHandlerFunc(func(in []byte, from netip.AddrPort, scratch *[]byte) ([]byte, bool) {
		got <- seen{src: from, ok: from.IsValid()}
		return nil, false
	}), Config{Shards: 2})
	e.Start()
	defer e.Close()

	// A parseable non-UDPAddr source reaches the handler with the real
	// address, not the zero AddrPort.
	conn.in <- fakePacket{data: []byte("hello"), from: stringOnlyAddr("10.9.8.7:6543")}
	select {
	case s := <-got:
		if !s.ok || s.src != netip.MustParseAddrPort("10.9.8.7:6543") {
			t.Fatalf("handler saw source %v (valid=%v), want 10.9.8.7:6543", s.src, s.ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("datagram with parseable string source never dispatched")
	}

	// An unusable source is counted and dropped, never dispatched.
	conn.in <- fakePacket{data: []byte("bogus"), from: stringOnlyAddr("not-an-address")}
	waitFor(t, "bad-source drop counted", func() bool { return e.Snapshot().BadSourceDrops == 1 })
	select {
	case s := <-got:
		t.Fatalf("unusable source was dispatched anyway (src %v)", s.src)
	default:
	}
	st := e.Snapshot()
	if st.Dropped != 0 {
		t.Fatalf("bad-source drop leaked into the overrun counter: %+v", st)
	}
}

// sourceHandlerFunc adapts a function to SourceHandler (and Handler).
type sourceHandlerFunc func(in []byte, from netip.AddrPort, scratch *[]byte) ([]byte, bool)

func (f sourceHandlerFunc) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	return f(in, netip.AddrPort{}, scratch)
}

func (f sourceHandlerFunc) HandleDatagramFrom(in []byte, from netip.AddrPort, scratch *[]byte) ([]byte, bool) {
	return f(in, from, scratch)
}

func TestQueueOverrunDropsAreCounted(t *testing.T) {
	conn := newFakeConn(64)
	gate := make(chan struct{})
	e := New(conn, HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) {
		<-gate
		return nil, false
	}), Config{Shards: 1, QueueDepth: 1})
	e.Start()

	for i := 0; i < 5; i++ {
		conn.in <- fakePacket{data: []byte("x"), from: testSrc}
	}
	waitFor(t, "5 packets received", func() bool { return e.Snapshot().Received == 5 })
	close(gate)
	e.Close()

	st := e.Snapshot()
	if st.Dropped < 2 {
		t.Fatalf("Dropped = %d, want >= 2 (queue depth 1, one in-flight)", st.Dropped)
	}
	if st.Handled+st.Dropped != st.Received {
		t.Fatalf("handled %d + dropped %d != received %d", st.Handled, st.Dropped, st.Received)
	}
	if st.BuffersInFlight != 0 {
		t.Fatalf("%d pooled buffers leaked after overrun + drain", st.BuffersInFlight)
	}
}

// TestQueueOverrunAccountingUnderSustainedPressure drives an order of
// magnitude more datagrams than one blocked shard can queue, then
// asserts the drop accounting is exact: every received datagram is
// either handled or dropped, every reply corresponds to a handled
// datagram, and no pooled buffer leaks — the invariant that makes the
// overload memory bound real. While the handler is blocked it also holds
// the pooled buffers out to that bound: (QueueDepth+rxBatch) per shard
// plus the reader's rxBatch slots, each MaxDatagram bytes.
func TestQueueOverrunAccountingUnderSustainedPressure(t *testing.T) {
	conn := newFakeConn(256)
	gate := make(chan struct{})
	var handled atomic.Uint64
	e := New(conn, HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) {
		<-gate
		handled.Add(1)
		*scratch = append((*scratch)[:0], in...)
		return *scratch, true
	}), Config{Shards: 1, QueueDepth: 8, MaxDatagram: 512})
	e.Start()

	const offered = 100
	for i := 0; i < offered; i++ {
		conn.in <- fakePacket{data: fmt.Appendf(nil, "pkt-%d", i), from: testSrc}
	}
	waitFor(t, "all offered datagrams received", func() bool { return e.Snapshot().Received == offered })
	st := e.Snapshot()
	if floor := uint64(offered - 8 - rxBatch); st.Dropped < floor {
		// Queue depth 8 plus at most the one batch the worker collected
		// before its handler blocked: everything else must be a counted
		// drop.
		t.Fatalf("Dropped = %d, want >= %d", st.Dropped, floor)
	}
	// doc.go's single-reader bound in buffers: each shard's queue and the
	// batch its worker collected, plus the reader's receive slots.
	if bound := int64(1*(8+rxBatch) + rxBatch); st.BuffersInFlight > bound {
		t.Fatalf("%d pooled buffers out while the handler is blocked, bound %d", st.BuffersInFlight, bound)
	}
	close(gate)
	e.Close()

	st = e.Snapshot()
	if st.Handled != handled.Load() {
		t.Fatalf("Handled counter %d != handler invocations %d", st.Handled, handled.Load())
	}
	if st.Handled+st.Dropped != st.Received {
		t.Fatalf("handled %d + dropped %d != received %d", st.Handled, st.Dropped, st.Received)
	}
	if st.Replies != st.Handled {
		t.Fatalf("replies %d != handled %d for an always-replying handler", st.Replies, st.Handled)
	}
	if st.BuffersInFlight != 0 {
		t.Fatalf("%d pooled buffers leaked after sustained overrun", st.BuffersInFlight)
	}
	if got := conn.writeCount(); uint64(got) != st.Replies {
		t.Fatalf("%d datagrams written, stats say %d replies", got, st.Replies)
	}
}

func TestCloseDrainsQueuedDatagrams(t *testing.T) {
	conn := newFakeConn(64)
	gate := make(chan struct{})
	e := New(conn, HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) {
		<-gate
		*scratch = append((*scratch)[:0], in...)
		return *scratch, true
	}), Config{Shards: 2, QueueDepth: 64})
	e.Start()

	const k = 12
	for i := 0; i < k; i++ {
		conn.in <- fakePacket{data: fmt.Appendf(nil, "msg-%d", i), from: testSrc}
	}
	waitFor(t, "all packets queued", func() bool { return e.Snapshot().Received == k })

	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	close(gate) // release the workers; Close must wait for the drain
	<-closed

	st := e.Snapshot()
	if st.Handled != k || st.Replies != k {
		t.Fatalf("after drain: handled=%d replies=%d, want %d/%d", st.Handled, st.Replies, k, k)
	}
	if conn.writeCount() != k {
		t.Fatalf("%d replies written, want %d", conn.writeCount(), k)
	}
}

func TestCloseBeforeStart(t *testing.T) {
	conn := newFakeConn(1)
	e := New(conn, HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) { return nil, false }),
		Config{})
	e.Close() // must not hang or panic
	select {
	case <-conn.closed:
	default:
		t.Fatal("socket not closed")
	}
}

// --- concurrency over real sockets (exercised under -race in CI) ---------

func TestConcurrentClientsOverLoopback(t *testing.T) {
	srv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := New(srv, HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) {
		*scratch = append((*scratch)[:0], "echo:"...)
		*scratch = append(*scratch, in...)
		return *scratch, true
	}), Config{Shards: 4, Name: "test-echo"})
	e.Start()
	defer e.Close()

	const clients, msgs = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("udp", srv.LocalAddr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			buf := make([]byte, 2048)
			for m := 0; m < msgs; m++ {
				msg := fmt.Sprintf("c%d-m%d", c, m)
				want := "echo:" + msg
				ok := false
				for attempt := 0; attempt < 5 && !ok; attempt++ { // UDP may drop
					if _, err := conn.Write([]byte(msg)); err != nil {
						errs <- err
						return
					}
					conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
					n, err := conn.Read(buf)
					if err == nil && bytes.Equal(buf[:n], []byte(want)) {
						ok = true
					}
				}
				if !ok {
					errs <- fmt.Errorf("client %d: no echo for %q", c, msg)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := e.Snapshot(); st.Handled < clients*msgs {
		t.Fatalf("handled %d, want >= %d", st.Handled, clients*msgs)
	}
	if got := e.Handled(); got < clients*msgs {
		t.Fatalf("Handled() = %d, want >= %d", got, clients*msgs)
	}
}
