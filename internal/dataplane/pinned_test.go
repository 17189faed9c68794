package dataplane

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"incod/internal/netio"
)

// The suites of batch_test.go once more with PinShards set: a pinned
// worker owns its thread, so its socket may wait for datagrams on that
// thread instead of in the netpoller, and none of the engine's contracts
// may notice.

func TestPinnedEngineEchoAndHandoff(t *testing.T) {
	t.Run("arrival", func(t *testing.T) {
		e := newBatchedEngine(t, 2, echoHandler, Config{Name: "test-pinned-arrival", PinShards: true})
		e.Start()
		defer e.Close()
		const clients, msgs = 8, 25
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				echoClient(t, e.LocalAddr().String(), fmt.Sprintf("p%d", c), msgs)
			}(c)
		}
		wg.Wait()
		if st := e.Snapshot(); !t.Failed() && st.Handled < clients*msgs {
			t.Fatalf("handled %d, want >= %d", st.Handled, clients*msgs)
		}
	})
}

func TestPinnedEngineBarrierDrainAndClose(t *testing.T) {
	e := newBatchedEngine(t, 2, echoHandler, Config{Name: "test-pinned-drain", PinShards: true})
	e.Start()

	// An idle pinned worker is parked in the netpoller like any other;
	// the queue poll still bounds a Barrier.
	done := make(chan struct{})
	go func() { e.Barrier(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Barrier stuck against idle pinned workers")
	}

	echoClient(t, e.LocalAddr().String(), "pd", 40)
	e.Barrier()
	e.Close()
	if st := e.Snapshot(); st.BuffersInFlight != 0 {
		t.Fatalf("after Close: %d buffers in flight, want 0", st.BuffersInFlight)
	}
	e.Close()
	e.Barrier()
}

// closeBudget bounds Close on a pinned engine: a worker inside its
// on-thread wait comes back within one wait budget, one parked in the
// netpoller at once, and the drain that follows is a handful of batches.
const closeBudget = 50 * time.Millisecond

func TestPinnedEngineClosesPromptly(t *testing.T) {
	timedClose := func(t *testing.T, e *Engine) {
		t.Helper()
		start := time.Now()
		e.Close()
		if took := time.Since(start); took > closeBudget {
			t.Fatalf("Close took %v, want under %v", took, closeBudget)
		}
		if st := e.Snapshot(); st.BuffersInFlight != 0 {
			t.Fatalf("%d pooled buffers leaked after Close", st.BuffersInFlight)
		}
	}

	t.Run("idle", func(t *testing.T) {
		e := newBatchedEngine(t, 2, echoHandler, Config{Name: "test-pinned-close-idle", PinShards: true})
		e.Start()
		echoClient(t, e.LocalAddr().String(), "ci", 5)
		time.Sleep(5 * time.Millisecond) // past the last productive read's wait
		timedClose(t, e)
	})

	t.Run("under-load", func(t *testing.T) {
		e := newBatchedEngine(t, 2, echoHandler, Config{Name: "test-pinned-close-load", PinShards: true})
		e.Start()
		// Open-loop senders that outlive the engine: Close runs against
		// workers that are between productive reads.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			conn, err := net.Dial("udp", e.LocalAddr().String())
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				for {
					select {
					case <-stop:
						return
					default:
						_, _ = conn.Write([]byte("load"))
						time.Sleep(20 * time.Microsecond)
					}
				}
			}()
		}
		waitFor(t, "traffic reaches the pinned workers", func() bool { return e.Snapshot().Handled > 200 })
		timedClose(t, e)
		close(stop)
		wg.Wait()
	})
}

// TestPinnedEngineReportsThreadWaits: under a paced stream (each request
// sent once the previous reply is back) a pinned worker's next read after
// a productive one waits on its own thread, and /v1/dataplane says so in
// rx_thread_waits, on both batched rungs.
func TestPinnedEngineReportsThreadWaits(t *testing.T) {
	for _, rung := range []string{"mmsg", "uring"} {
		t.Run(rung, func(t *testing.T) {
			if rung == "uring" {
				if err := netio.ProbeUring(); err != nil {
					t.Skipf("io_uring unavailable: %v", err)
				}
			}
			conns, err := netio.ListenReusePortGroup("udp4", "127.0.0.1:0", 2)
			if err != nil {
				t.Skipf("reuseport group unavailable: %v", err)
			}
			bcs := batchConns(conns)
			if rung == "uring" {
				for i, c := range conns {
					if bcs[i], err = netio.NewUringConn(c, netio.UringConfig{}); err != nil {
						t.Fatalf("uring conn over a reuseport socket, though the probe passed: %v", err)
					}
				}
			}
			e := NewBatchedConns(conns, bcs, echoHandler, Config{Name: "test-pinned-waits-" + rung, PinShards: true})
			e.Start()
			defer e.Close()
			if b := e.Backend(); b != rung {
				t.Skipf("the %s rung serves here", b)
			}
			echoClient(t, e.LocalAddr().String(), "pw", 50)
			raw, err := json.Marshal(e.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var v struct {
				Waits uint64 `json:"rx_thread_waits"`
				Parks uint64 `json:"rx_parks"`
			}
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatal(err)
			}
			if v.Waits == 0 {
				t.Errorf("rx_thread_waits 0 after a paced stream of 50 on pinned workers (rx_parks %d)", v.Parks)
			}
		})
	}
}
