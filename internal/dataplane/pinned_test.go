package dataplane

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
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

	// An idle pinned worker is parked in the netpoller like any other,
	// at an even epoch: Barrier has nothing to wait for.
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

// closeBudget bounds Close on a batched engine: a worker inside its
// on-thread wait comes back within one wait budget, one parked in the
// netpoller (or on a uring rung's CQ eventfd) as soon as Close's
// deadline wakes it, and the drain that follows is a handful of batches.
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

	// Each case runs on both batched rungs, pinned and not.
	eachMode := func(t *testing.T, fn func(t *testing.T, e *Engine)) {
		for _, m := range engineModes {
			t.Run(m.name, func(t *testing.T) {
				e := newRungEngine(t, m.rung, echoHandler, Config{Name: "test-close-" + m.name, PinShards: m.pin}, nil)
				e.Start()
				fn(t, e)
			})
		}
	}

	t.Run("idle", func(t *testing.T) {
		eachMode(t, func(t *testing.T, e *Engine) {
			echoClient(t, e.LocalAddr().String(), "ci", 5)
			time.Sleep(5 * time.Millisecond) // past the last productive read's wait
			timedClose(t, e)
		})
	})

	t.Run("under-load", func(t *testing.T) {
		eachMode(t, func(t *testing.T, e *Engine) {
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
			waitFor(t, "traffic reaches the workers", func() bool { return e.Snapshot().Handled > 200 })
			timedClose(t, e)
			close(stop)
			wg.Wait()
		})
	})
}

// TestPinnedEngineReportsThreadWaits: under a paced stream (each request
// sent once the previous reply is back) a pinned worker's next read after
// a productive one waits on its own thread, and /v1/dataplane says so in
// rx_thread_waits, on both batched rungs.
func TestPinnedEngineReportsThreadWaits(t *testing.T) {
	for _, rung := range []string{"mmsg", "uring"} {
		t.Run(rung, func(t *testing.T) {
			e := newRungEngine(t, rung, echoHandler, Config{Name: "test-pinned-waits-" + rung, PinShards: true}, nil)
			e.Start()
			defer e.Close()
			// Both workers first settle into their reads. A shard still
			// setting up (its receive slots are 2 MiB of buffers) keeps its
			// CPU busy, so the client shares the serving worker's CPU, can
			// queue each request before that worker reads again, and
			// leaves it nothing to wait for.
			waitFor(t, "both workers parked in their reads", func() bool { return e.Snapshot().RxParks >= 2 })
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
