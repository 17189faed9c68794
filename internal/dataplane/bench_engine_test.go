package dataplane

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incod/internal/netio"
)

// benchServeLoopback blasts echo traffic at a running engine from
// `clients` batched client sockets (client-side I/O cost is identical
// for both server modes, so the measured difference is the server's)
// and reports achieved reply throughput. The loadgen is windowed: each
// socket keeps one 32-message batch in flight, so loss on an overloaded
// server costs a bounded timeout instead of skewing the measurement.
func benchServeLoopback(b *testing.B, e *Engine, clients int) {
	e.Start()
	defer e.Close()
	addr := e.LocalAddr().String()
	per := b.N/clients + 1
	var replies atomic.Uint64
	payload := []byte("bench-payload-0123456789abcdef")

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("udp", addr)
			if err != nil {
				b.Error(err)
				return
			}
			defer conn.Close()
			bc := netio.NewBatchConn(conn.(*net.UDPConn))
			const window = 32
			tx := make([]netio.Message, 0, window)
			rx := make([]netio.Message, window)
			for i := range rx {
				rx[i].Buf = make([]byte, 256)
			}
			for sent := 0; sent < per; {
				n := min(window, per-sent)
				tx = tx[:0]
				for k := 0; k < n; k++ {
					tx = append(tx, netio.Message{Buf: payload, N: len(payload)})
				}
				if _, err := bc.WriteBatch(tx); err != nil {
					b.Error(err)
					return
				}
				sent += n
				got := 0
				deadline := time.Now().Add(200 * time.Millisecond)
				for got < n {
					_ = bc.SetReadDeadline(deadline)
					m, err := bc.ReadBatch(rx)
					if err != nil {
						break // timeout: count the loss and move on
					}
					got += m
				}
				replies.Add(uint64(got))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > 0 {
		b.ReportMetric(float64(replies.Load())/elapsed.Seconds()/1000, "achieved-kpps")
	}
	b.ReportMetric(float64(replies.Load())/float64(clients*per)*100, "answered-%")
	if st := e.Snapshot(); st.RxPerRead > 0 {
		// Amortization diagnostic: how many datagrams each ReadBatch
		// delivered on average — the number the transport rung exists
		// to raise.
		b.ReportMetric(st.RxPerRead, "rx-per-read")
	}
}

// BenchmarkDataplaneEngineLoopback sweeps the three transport rungs
// (single-reader, recvmmsg/sendmmsg, io_uring) across shard counts. The
// generator shares the server's cores and the workers do not own their
// threads (Config.PinShards off), a mode no BENCHMARK.json workload
// runs, so the kpps are not a capacity figure: scripts/bench.sh only
// checks that no batched rung falls under 0.6x the single-reader row
// at the same shard count.
func BenchmarkDataplaneEngineLoopback(b *testing.B) {
	for _, backend := range []string{"single", "mmsg", "uring"} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s-%dshard", backend, shards), func(b *testing.B) {
				var e *Engine
				switch backend {
				case "single":
					conn, err := net.ListenPacket("udp4", "127.0.0.1:0")
					if err != nil {
						b.Fatal(err)
					}
					e = New(conn, echoHandler, Config{Name: "bench-eng-single", Shards: shards})
				default:
					conns, err := netio.ListenReusePortGroup("udp4", "127.0.0.1:0", shards)
					if err != nil {
						b.Skipf("reuseport group unavailable: %v", err)
					}
					if backend == "uring" {
						if err := netio.ProbeUring(); err != nil {
							for _, c := range conns {
								c.Close()
							}
							b.Skipf("io_uring unavailable: %v", err)
						}
						bcs := make([]netio.BatchConn, len(conns))
						for i, c := range conns {
							bc, err := netio.NewUringConn(c, netio.UringConfig{BufSize: 2048})
							if err != nil {
								b.Fatal(err)
							}
							bcs[i] = bc
						}
						e = NewBatchedConns(conns, bcs, echoHandler, Config{Name: "bench-eng-uring"})
					} else {
						e = NewBatchedConns(conns, batchConns(conns), echoHandler, Config{Name: "bench-eng-mmsg"})
					}
				}
				benchServeLoopback(b, e, 4*shards)
			})
		}
	}
}
