package dataplane

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// The suites of batch_test.go and freelist_test.go once more with
// PinShards set: a pinned worker owns its thread, so its socket may wait
// for datagrams on that thread instead of in the netpoller, and none of
// the engine's contracts may notice.

func TestPinnedEngineEchoAndHandoff(t *testing.T) {
	for name, shardBy := range map[string]func([]byte, netip.AddrPort) uint64{
		"arrival": nil,
		// Payload parity: about half the datagrams cross shards whichever
		// socket the kernel picked.
		"handoff": func(b []byte, _ netip.AddrPort) uint64 { return uint64(b[len(b)-1]) },
	} {
		t.Run(name, func(t *testing.T) {
			e := newBatchedEngine(t, 2, echoHandler, Config{Name: "test-pinned-" + name, PinShards: true, ShardBy: shardBy})
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
}

func TestPinnedEngineBarrierDrainAndClose(t *testing.T) {
	e := newBatchedEngine(t, 2, echoHandler, Config{
		Name:      "test-pinned-drain",
		PinShards: true,
		ShardBy:   func(b []byte, _ netip.AddrPort) uint64 { return uint64(b[len(b)-1]) },
	})
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
	if st := e.Snapshot(); st.BuffersCached <= 0 || st.BuffersCached > st.BuffersInFlight {
		t.Fatalf("after cross-shard traffic: cached=%d in-flight=%d", st.BuffersCached, st.BuffersInFlight)
	}
	e.Close()
	if st := e.Snapshot(); st.BuffersInFlight != 0 || st.BuffersCached != 0 {
		t.Fatalf("after Close: in-flight=%d cached=%d, want 0/0", st.BuffersInFlight, st.BuffersCached)
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
