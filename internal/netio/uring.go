package netio

import (
	"errors"
	"sync"
)

// ErrUringUnsupported reports that the running kernel (or platform)
// lacks the io_uring features the uring backend needs — multishot
// RECVMSG (Linux 6.0), a provided-buffer ring, one mapping for the SQ
// and CQ rings (IORING_FEAT_SINGLE_MMAP) and a CQ eventfd the netpoller
// can wait on. Callers test for it with errors.Is and degrade to
// NewBatchConn.
var ErrUringUnsupported = errors.New("netio: io_uring backend unsupported on this kernel")

// UringConfig sizes a NewUringConn ring. The zero value is serviceable.
type UringConfig struct {
	// Entries is the submission-queue depth (default 128). The ring
	// carries nothing but the multishot receive (WriteBatch is sendmmsg),
	// so this mostly sizes the completion queue alongside Buffers.
	Entries int
	// Buffers is the provided-buffer ring size (default 256, rounded up
	// to a power of two): the number of datagrams the kernel can
	// complete ahead of ReadBatch before the multishot starves and has
	// to be re-armed.
	Buffers int
	// BufSize is the largest datagram accepted without truncation
	// (default 64 KiB, the memcached UDP maximum). With GRO active it
	// also bounds a coalesced GSO train: of a longer one only the
	// segments that fit whole are delivered, and the rest are counted in
	// RxStats.CutSegs.
	BufSize int
}

func (c UringConfig) withDefaults() UringConfig {
	if c.Entries <= 0 {
		c.Entries = 128
	}
	if c.Buffers <= 0 {
		c.Buffers = 256
	}
	// Power-of-two ring, kernel requirement.
	n := 1
	for n < c.Buffers {
		n <<= 1
	}
	c.Buffers = n
	if c.BufSize <= 0 {
		c.BufSize = 64 * 1024
	}
	return c
}

// UringStats is a point-in-time snapshot of one uring conn's ring
// telemetry, surfaced by the dataplane on /v1/dataplane.
type UringStats struct {
	// RingEntries is the submission-queue depth; BufRingSize the
	// provided-buffer ring size.
	RingEntries int
	BufRingSize int
	// Resubmits counts multishot re-arms after a termination (buffer
	// starvation, transient error): 0 means the first arm never died.
	Resubmits uint64
	// Starved counts ENOBUFS terminations specifically — the consumer
	// fell more than BufRingSize datagrams behind the socket.
	Starved uint64
	// Enters counts io_uring_enter syscalls, the number to compare with
	// the datagram counters for the amortization ratio.
	Enters uint64
}

// UringStatser is implemented by BatchConns that expose ring telemetry
// (the uring backend). BackendOf + UringStatsOf let the dataplane report
// per-shard transport detail without depending on concrete types.
type UringStatser interface {
	Stats() UringStats
}

// UringStatsOf returns bc's ring telemetry when bc is a uring conn.
func UringStatsOf(bc BatchConn) (UringStats, bool) {
	if s, ok := bc.(UringStatser); ok {
		return s.Stats(), true
	}
	return UringStats{}, false
}

// BackendOf names the transport rung serving bc: "uring", "mmsg" or
// "single".
func BackendOf(bc BatchConn) string {
	if b, ok := bc.(interface{ Backend() string }); ok {
		return b.Backend()
	}
	return "unknown"
}

var (
	probeOnce sync.Once
	probeErr  error
)

// ProbeUring reports whether the io_uring backend works end to end on
// this process: it builds a real ring over a loopback socket, sends
// itself a datagram and reads it back through the multishot RECVMSG +
// provided-buffer path. The verdict is cached for the life of the
// process. Daemons call it once and fall back to the mmsg backend
// (logging the downgrade) when it fails.
func ProbeUring() error {
	probeOnce.Do(func() { probeErr = probeUring() })
	return probeErr
}
