package netio

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"time"
)

// Message is one datagram in a batch. On read, Buf is filled in place, N
// is set to the datagram length and Src to the peer address. On write,
// Buf[:N] is sent to Src; a zero Src sends to the connected peer (the
// net.Dial case), which is how the load generator drives a connected
// socket through the same interface.
//
// A SegSize in (0, N) marks Buf[:N] as a GSO train instead of one
// datagram: a run of SegSize-byte datagrams, the last of which may be
// shorter, all bound for Src. Rungs with UDP_SEGMENT hand the whole
// train to the kernel in one send; rungs without it unroll the train
// into per-datagram sends with identical bytes on the wire (counted in
// TxStats.Fallbacks). Callers should only mark trains after ProbeGSO
// succeeds — the unroll keeps them correct, not fast.
type Message struct {
	Buf     []byte
	N       int
	Src     netip.AddrPort
	SegSize int
}

// Kernel bounds on one GSO train: UDP_MAX_SEGMENTS caps a train at 64
// segments, and one UDP send carries at most the largest legal payload.
// Train builders must respect both.
const (
	MaxTrainSegs  = 64
	MaxTrainBytes = 65507
)

// Segments returns how many datagrams the message puts on the wire:
// the train's segment count when SegSize marks one, otherwise 1.
func (m *Message) Segments() int {
	if m.SegSize <= 0 || m.SegSize >= m.N {
		return 1
	}
	return (m.N + m.SegSize - 1) / m.SegSize
}

// BatchConn is a datagram socket with batched I/O. ReadBatch blocks for
// the first datagram (honoring the read deadline) and returns as many as
// are immediately available, up to len(ms); WriteBatch transmits every
// message or returns how many were sent before the error. One ReadBatch
// or WriteBatch call is one syscall on Linux, so a batch of 32 amortizes
// the per-packet syscall cost 32x.
//
// OwnThread is the reader's declaration that it has locked itself to its
// OS thread (runtime.LockOSThread) for good, made once by the goroutine
// that calls ReadBatch, before its first read. A rung may then wait for
// datagrams on that thread instead of in the netpoller (both batched
// rungs do); how and when is the rung's business. It is a required
// method so that a wrapper embedding a BatchConn forwards it without
// knowing.
type BatchConn interface {
	ReadBatch(ms []Message) (int, error)
	WriteBatch(ms []Message) (int, error)
	SetReadDeadline(t time.Time) error
	OwnThread()
	LocalAddr() net.Addr
	Close() error
}

// NewBatchConn wraps pc in batch I/O: on Linux a *net.UDPConn gets true
// recvmmsg/sendmmsg batching; anything else (in-memory transports,
// other platforms) gets a portable one-datagram-per-ReadBatch fallback
// with identical semantics.
func NewBatchConn(pc net.PacketConn) BatchConn {
	if !forceFallback {
		if bc := newMmsgConn(pc); bc != nil {
			return bc
		}
	}
	return NewSingleConn(pc)
}

// NewSingleConn wraps pc in the portable one-datagram-per-call backend
// unconditionally, bypassing the mmsg upgrade: NewBatchConn's fallback,
// which tests and benches build directly to measure the lowest rung on
// platforms where NewBatchConn would pick a faster one.
func NewSingleConn(pc net.PacketConn) BatchConn {
	return &singleConn{pc: pc}
}

// errNoDest reports a WriteBatch message with a zero Src on a socket
// that is not connected.
var errNoDest = errors.New("netio: message has no destination and the socket is not connected")

// TxStats is the transmit side's GSO train telemetry. Every field
// reports what actually happened, not what was requested: a conn that
// unrolled a train per-datagram counts a Fallback, not a Train.
type TxStats struct {
	// Trains counts GSO trains handed to the kernel as single sends.
	Trains uint64
	// TrainSegs counts the datagrams those trains carried.
	TrainSegs uint64
	// Fallbacks counts trains unrolled into per-datagram sends because
	// the rung (or the kernel, per send) could not take UDP_SEGMENT.
	Fallbacks uint64
}

// TxStatser is implemented by conns that track GSO transmit telemetry.
type TxStatser interface{ TxStats() TxStats }

// TxStatsOf reports bc's transmit telemetry when its rung tracks any.
func TxStatsOf(bc BatchConn) (TxStats, bool) {
	if t, ok := bc.(TxStatser); ok {
		return t.TxStats(), true
	}
	return TxStats{}, false
}

// txCounters is the shared atomic backing of TxStats, embedded by every
// rung's conn.
type txCounters struct {
	trains, trainSegs, fallbacks atomic.Uint64
}

func (t *txCounters) snapshot() TxStats {
	return TxStats{
		Trains:    t.trains.Load(),
		TrainSegs: t.trainSegs.Load(),
		Fallbacks: t.fallbacks.Load(),
	}
}

// RxStats is the receive side's GRO train telemetry, the mirror of
// TxStats: what the socket took, not what was sent to it.
type RxStats struct {
	// GRO reports whether the socket takes UDP_GRO trains: the uring rung
	// wherever the kernel does, the mmsg rung where in addition the
	// receive slots hold the largest train.
	GRO bool
	// Trains counts payloads that arrived as one coalesced train of more
	// than one datagram; TrainSegs counts the datagrams they carried.
	Trains    uint64
	TrainSegs uint64
	// CutSegs counts datagrams of those trains that were never delivered
	// because the receive buffer cut the train short of them.
	CutSegs uint64
	// ThreadWaits counts the reader's waits on its own thread (OwnThread,
	// directly after a productive read) and Parks its parks in the
	// netpoller, the two ways a batched rung's reader waits for data.
	ThreadWaits uint64
	Parks       uint64
}

// RxStatser is implemented by the batched rungs' conns.
type RxStatser interface{ RxStats() RxStats }

// RxStatsOf reports bc's receive telemetry when its rung tracks any.
func RxStatsOf(bc BatchConn) (RxStats, bool) {
	if r, ok := bc.(RxStatser); ok {
		return r.RxStats(), true
	}
	return RxStats{}, false
}

// rxCounters is the atomic backing of RxStats: the packet path adds once
// per train or wait, a reader loads.
type rxCounters struct {
	gro                        atomic.Bool
	trains, trainSegs, cutSegs atomic.Uint64
	threadWaits, parks         atomic.Uint64
}

func (r *rxCounters) snapshot() RxStats {
	return RxStats{
		GRO:         r.gro.Load(),
		Trains:      r.trains.Load(),
		TrainSegs:   r.trainSegs.Load(),
		CutSegs:     r.cutSegs.Load(),
		ThreadWaits: r.threadWaits.Load(),
		Parks:       r.parks.Load(),
	}
}

// singleConn is the portable fallback: one datagram per call, same
// contract as the mmsg path.
type singleConn struct {
	pc net.PacketConn
	tx txCounters
}

func (c *singleConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	m := &ms[0]
	if u, ok := c.pc.(*net.UDPConn); ok {
		n, src, err := u.ReadFromUDPAddrPort(m.Buf)
		if err != nil {
			return 0, err
		}
		m.N, m.Src = n, src
		return 1, nil
	}
	n, raw, err := c.pc.ReadFrom(m.Buf)
	if err != nil {
		return 0, err
	}
	m.N = n
	m.Src, _ = AddrPortOf(raw)
	return 1, nil
}

func (c *singleConn) WriteBatch(ms []Message) (int, error) {
	u, _ := c.pc.(*net.UDPConn)
	for i := range ms {
		m := &ms[i]
		if m.SegSize > 0 && m.SegSize < m.N {
			// This rung has no UDP_SEGMENT: unroll the train into the
			// same per-datagram sends a GSO kernel would produce.
			for off := 0; off < m.N; off += m.SegSize {
				end := min(off+m.SegSize, m.N)
				if err := c.writeOne(u, m.Buf[off:end], m.Src); err != nil {
					return i, err
				}
			}
			c.tx.fallbacks.Add(1)
			continue
		}
		if err := c.writeOne(u, m.Buf[:m.N], m.Src); err != nil {
			return i, err
		}
	}
	return len(ms), nil
}

func (c *singleConn) writeOne(u *net.UDPConn, buf []byte, src netip.AddrPort) error {
	var err error
	switch {
	case !src.IsValid():
		if w, ok := c.pc.(net.Conn); ok {
			_, err = w.Write(buf)
		} else {
			err = errNoDest
		}
	case u != nil:
		_, err = u.WriteToUDPAddrPort(buf, src)
	default:
		_, err = c.pc.WriteTo(buf, net.UDPAddrFromAddrPort(src))
	}
	return err
}

// TxStats implements TxStatser: on this rung only Fallbacks can be
// nonzero.
func (c *singleConn) TxStats() TxStats { return c.tx.snapshot() }

func (c *singleConn) SetReadDeadline(t time.Time) error { return c.pc.SetReadDeadline(t) }
func (c *singleConn) LocalAddr() net.Addr               { return c.pc.LocalAddr() }
func (c *singleConn) Close() error                      { return c.pc.Close() }

// OwnThread implements BatchConn; net.PacketConn reads always wait in
// the netpoller.
func (c *singleConn) OwnThread() {}

// Backend names the transport rung for stats and logs.
func (c *singleConn) Backend() string { return "single" }

// AddrPortOf extracts a netip.AddrPort from a net.Addr: the fast path
// for *net.UDPAddr, otherwise by parsing a.String() — which covers
// custom net.Addr implementations (test transports) whose String is the
// conventional "ip:port". ok is false when no address can be derived.
func AddrPortOf(a net.Addr) (ap netip.AddrPort, ok bool) {
	switch v := a.(type) {
	case *net.UDPAddr:
		return v.AddrPort(), true
	case nil:
		return netip.AddrPort{}, false
	}
	ap, err := netip.ParseAddrPort(a.String())
	if err != nil {
		return netip.AddrPort{}, false
	}
	return ap, true
}

// ListenReusePortGroup opens n UDP sockets bound to the same address via
// SO_REUSEPORT, so the kernel spreads inbound flows across them by
// 4-tuple hash — the per-shard-socket substrate of the batched
// dataplane. An ephemeral port (":0") resolved by the first socket is
// pinned for the rest of the group. n < 1 is treated as 1; n > 1
// requires SO_REUSEPORT and fails with a descriptive error on platforms
// without it.
func ListenReusePortGroup(network, addr string, n int) ([]net.PacketConn, error) {
	if n < 1 {
		n = 1
	}
	if !reusePortAvailable {
		if n > 1 {
			return nil, fmt.Errorf("netio: %d-socket reuseport group unsupported on this platform (SO_REUSEPORT required)", n)
		}
		pc, err := net.ListenPacket(network, addr)
		if err != nil {
			return nil, err
		}
		return []net.PacketConn{pc}, nil
	}
	lc := reusePortListenConfig()
	conns := make([]net.PacketConn, 0, n)
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), network, addr)
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			return nil, fmt.Errorf("netio: reuseport socket %d/%d on %s: %w", i+1, n, addr, err)
		}
		if i == 0 {
			addr = pc.LocalAddr().String()
		}
		conns = append(conns, pc)
	}
	return conns, nil
}
