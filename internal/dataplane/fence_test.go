package dataplane

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incod/internal/netio"
)

// newRungEngine builds a two-shard batched engine over a loopback
// reuseport group on one transport rung ("mmsg" or "uring"), each
// shard's conn passed through wrap when it is set. It skips where the
// rung cannot serve.
func newRungEngine(tb testing.TB, rung string, h Handler, cfg Config, wrap func(netio.BatchConn) netio.BatchConn) *Engine {
	tb.Helper()
	if rung == "uring" {
		if err := netio.ProbeUring(); err != nil {
			tb.Skipf("io_uring unavailable: %v", err)
		}
	}
	conns, err := netio.ListenReusePortGroup("udp4", "127.0.0.1:0", 2)
	if err != nil {
		tb.Skipf("reuseport group unavailable: %v", err)
	}
	bcs := batchConns(conns)
	if rung == "uring" {
		for i, c := range conns {
			if bcs[i], err = netio.NewUringConn(c, netio.UringConfig{}); err != nil {
				tb.Fatalf("uring conn over a reuseport socket, though the probe passed: %v", err)
			}
		}
	}
	if b := netio.BackendOf(bcs[0]); b != rung {
		for _, bc := range bcs {
			bc.Close()
		}
		tb.Skipf("the %s rung serves here", b)
	}
	if wrap != nil {
		for i := range bcs {
			bcs[i] = wrap(bcs[i])
		}
	}
	return NewBatchedConns(conns, bcs, h, cfg)
}

// readCounter counts the ReadBatch calls that return on the conn it
// wraps.
type readCounter struct {
	netio.BatchConn
	reads atomic.Uint64
}

func (c *readCounter) ReadBatch(ms []netio.Message) (int, error) {
	n, err := c.BatchConn.ReadBatch(ms)
	c.reads.Add(1)
	return n, err
}

// rungConn is the optional method set both batched rungs have.
type rungConn interface {
	Backend() string
	netio.TxStatser
	netio.RxStatser
}

// countReads wraps bc in a readCounter with exactly bc's method set: the
// engine finds a rung's optional interfaces by type assertion, so a
// wrapper with fewer would move it off the rung's paths (no trains, no
// receive stats). It panics on a conn that is not a batched rung.
func countReads(bc netio.BatchConn, into *[]*readCounter) netio.BatchConn {
	rc := &readCounter{BatchConn: bc}
	*into = append(*into, rc)
	rs := bc.(rungConn)
	if us, ok := bc.(netio.UringStatser); ok {
		return struct {
			*readCounter
			rungConn
			netio.UringStatser
		}{rc, rs, us}
	}
	return struct {
		*readCounter
		rungConn
	}{rc, rs}
}

func sumReads(rcs []*readCounter) uint64 {
	var n uint64
	for _, rc := range rcs {
		n += rc.reads.Load()
	}
	return n
}

// engineMode is one batched daemon mode: a rung, pinned or not.
type engineMode struct {
	name, rung string
	pin        bool
}

// engineModes are the batched daemon modes: -sockets 2, with -pin, and
// -engine uring with and without it.
var engineModes = []engineMode{
	{"mmsg", "mmsg", false},
	{"mmsg-pin", "mmsg", true},
	{"uring", "uring", false},
	{"uring-pin", "uring", true},
}

// idleReadsMax bounds how many times an idle shard's ReadBatch may
// return in idleWindow: a worker with no traffic sleeps in its read.
const (
	idleWindow   = 200 * time.Millisecond
	idleReadsMax = 5
)

// TestIdleBatchedEngineSleeps: after one echo, a batched engine with no
// traffic leaves its workers asleep in their reads, on every rung,
// pinned or not.
func TestIdleBatchedEngineSleeps(t *testing.T) {
	for _, m := range engineModes {
		t.Run(m.name, func(t *testing.T) {
			var rcs []*readCounter
			e := newRungEngine(t, m.rung, echoHandler, Config{Name: "test-idle-" + m.name, PinShards: m.pin},
				func(bc netio.BatchConn) netio.BatchConn { return countReads(bc, &rcs) })
			e.Start()
			defer e.Close()
			echoClient(t, e.LocalAddr().String(), "idle", 1)
			time.Sleep(5 * time.Millisecond) // past the last productive read's wait
			from := sumReads(rcs)
			time.Sleep(idleWindow)
			if got := sumReads(rcs) - from; got > idleReadsMax*uint64(len(rcs)) {
				t.Errorf("%d ReadBatch returns on %d idle shards in %v, want at most %d per shard", got, len(rcs), idleWindow, idleReadsMax)
			}
		})
	}
}

// servesAll is an offload tier that serves every datagram.
type servesAll struct{ served atomic.Uint64 }

func (f *servesAll) TryHandleDatagram(in []byte, _ netip.AddrPort, scratch *[]byte) ([]byte, bool, bool) {
	f.served.Add(1)
	*scratch = append(append((*scratch)[:0], "tier:"...), in...)
	return *scratch, true, true
}

// fenceEngines builds, per name, the engines the fence tests load: the
// single reader and the batched daemon modes given.
func fenceEngines(h Handler, modes []engineMode) map[string]func(t *testing.T) *Engine {
	engines := map[string]func(t *testing.T) *Engine{
		"single-reader": func(t *testing.T) *Engine {
			conn, err := net.ListenPacket("udp4", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return New(conn, h, Config{Name: "test-fence-single", Shards: 2})
		},
	}
	for _, m := range modes {
		engines[m.name] = func(t *testing.T) *Engine {
			return newRungEngine(t, m.rung, h, Config{Name: "test-fence-" + m.name, PinShards: m.pin}, nil)
		}
	}
	return engines
}

// openLoad sends datagrams to addr from two clients, each one every
// 20µs whatever the replies do, until the returned stop is called; stop
// returns once both have stopped and may be called again.
func openLoad(t *testing.T, addr string) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	stop = sync.OnceFunc(func() { close(done); wg.Wait() })
	for c := 0; c < 2; c++ {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			stop()
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			for {
				select {
				case <-done:
					return
				default:
					_, _ = conn.Write([]byte("fence"))
					time.Sleep(20 * time.Microsecond)
				}
			}
		}()
	}
	return stop
}

// TestBarrierFencesHostDispatchUnderLoad flips a tier that serves
// everything onto an engine under open-loop load, rounds over: once
// Barrier returns, no host dispatch may land, so the host count read
// then must hold until the tier is cleared, and after the load stops.
// The host handler sleeps before it counts, so a dispatch in flight
// across the flip is the common case, not a rare one.
func TestBarrierFencesHostDispatchUnderLoad(t *testing.T) {
	var host atomic.Uint64
	slow := HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) {
		time.Sleep(5 * time.Microsecond)
		host.Add(1)
		*scratch = append((*scratch)[:0], in...)
		return *scratch, true
	})
	for name, build := range fenceEngines(slow, engineModes[:2]) {
		t.Run(name, func(t *testing.T) {
			e := build(t)
			e.Start()
			defer e.Close()
			stopLoad := openLoad(t, e.LocalAddr().String())
			defer stopLoad()
			tier := &servesAll{}
			const rounds = 5
			for r := 0; r < rounds; r++ {
				from := host.Load()
				waitFor(t, "the host serves the load", func() bool { return host.Load() > from+50 })
				e.SetFastPath(tier)
				e.Barrier()
				fenced, served := host.Load(), tier.served.Load()
				waitFor(t, "the tier serves the load", func() bool { return tier.served.Load() > served+50 })
				if r == rounds-1 {
					stopLoad()
					time.Sleep(10 * time.Millisecond) // the engine drains what the sockets hold
				}
				if got := host.Load(); got != fenced {
					t.Fatalf("round %d: %d host dispatches landed after Barrier returned", r, got-fenced)
				}
				e.ClearFastPath()
			}
		})
	}
}

// slowTier is an offload tier that takes a while over each call and
// serves everything, without a reply. It counts the calls it has
// entered and the ones it is inside.
type slowTier struct{ entered, inside atomic.Int64 }

func (f *slowTier) enter() {
	f.entered.Add(1)
	f.inside.Add(1)
	time.Sleep(20 * time.Microsecond)
}

func (f *slowTier) TryHandleDatagram([]byte, netip.AddrPort, *[]byte) ([]byte, bool, bool) {
	f.enter()
	f.inside.Add(-1)
	return nil, true, false
}

func (f *slowTier) TryHandleBatch(items []*BatchItem) {
	f.enter()
	for _, it := range items {
		it.Served = true
	}
	f.inside.Add(-1)
}

// TestClearFastPathDrainsTierUnderLoad installs a slow tier on an
// engine under open-loop load and clears it, rounds over, on the single
// reader and every batched mode: once ClearFastPath returns no call may
// still be inside the tier, and no new one may enter it, so a tier can
// be parked the moment it is handed back.
func TestClearFastPathDrainsTierUnderLoad(t *testing.T) {
	for name, build := range fenceEngines(echoHandler, engineModes) {
		t.Run(name, func(t *testing.T) {
			e := build(t)
			e.Start()
			defer e.Close()
			stopLoad := openLoad(t, e.LocalAddr().String())
			defer stopLoad()
			tier := &slowTier{}
			for r := 0; r < 5; r++ {
				from := tier.entered.Load()
				e.SetFastPath(tier)
				waitFor(t, "the tier serves the load", func() bool { return tier.entered.Load() > from+20 })
				e.ClearFastPath()
				if n := tier.inside.Load(); n != 0 {
					t.Fatalf("round %d: %d tier calls still running after ClearFastPath returned", r, n)
				}
				cleared := tier.entered.Load()
				time.Sleep(5 * time.Millisecond) // the host serves the load meanwhile
				if got := tier.entered.Load(); got != cleared {
					t.Fatalf("round %d: %d tier calls entered after ClearFastPath returned", r, got-cleared)
				}
			}
		})
	}
}
