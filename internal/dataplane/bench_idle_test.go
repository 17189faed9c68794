//go:build linux

package dataplane

import (
	"net"
	"syscall"
	"testing"
	"time"

	"incod/internal/netio"
)

// BenchmarkEngineIdle: a two-shard batched engine, after one echo, idles
// one idleSlice per iteration. It reports how often each shard's
// ReadBatch returned (reads/shard-s) and the process CPU the idle time
// cost (cpu-ms/shard-s, getrusage: user plus system). An idle worker
// sleeps in its read, so reads/shard-s is about 0 on every mode;
// scripts/bench.sh bounds it, the CPU row is only reported.
func BenchmarkEngineIdle(b *testing.B) {
	const idleSlice = 50 * time.Millisecond
	for _, m := range engineModes {
		if m.name == "uring" {
			continue // the three daemon modes: -sockets 2, -pin, -engine uring -pin
		}
		b.Run(m.name, func(b *testing.B) {
			var rcs []*readCounter
			e := newRungEngine(b, m.rung, echoHandler, Config{Name: "bench-idle-" + m.name, PinShards: m.pin},
				func(bc netio.BatchConn) netio.BatchConn { return countReads(bc, &rcs) })
			e.Start()
			defer e.Close()
			conn, err := net.Dial("udp", e.LocalAddr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("warm")); err != nil {
				b.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := conn.Read(make([]byte, 64)); err != nil {
				b.Fatalf("no echo: %v", err)
			}
			time.Sleep(5 * time.Millisecond) // past the last productive read's wait
			cpu0, reads0 := cpuTime(b), sumReads(rcs)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				time.Sleep(idleSlice)
			}
			shardSec := time.Since(start).Seconds() * float64(len(rcs))
			b.StopTimer()
			b.ReportMetric(float64(sumReads(rcs)-reads0)/shardSec, "reads/shard-s")
			b.ReportMetric(float64(cpuTime(b)-cpu0)/float64(time.Millisecond)/shardSec, "cpu-ms/shard-s")
		})
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
