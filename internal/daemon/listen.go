package daemon

import (
	"flag"
	"fmt"
	"log"
	"net"

	"incod/internal/dataplane"
	"incod/internal/netio"
)

// EngineOptions sizes a daemon's serving engine from its I/O flags.
type EngineOptions struct {
	// Addr is the UDP listen address.
	Addr string
	// Sockets selects the I/O mode: 0 keeps the classic single-reader
	// engine; > 0 opens that many SO_REUSEPORT sockets and serves them
	// in the batched per-shard-socket mode (one shard worker per
	// socket, recvmmsg/sendmmsg batches). Requires Linux when > 1.
	Sockets int
	// Engine picks the batched-mode transport: "" or "batched" uses
	// recvmmsg/sendmmsg (NewBatchConn's choice), "uring" asks for the
	// io_uring backend and degrades to mmsg — with a logged warning —
	// when netio.ProbeUring fails. "single" forces the portable
	// fallback. Ignored when Sockets is 0.
	Engine string
	// Pin locks each shard worker to its thread and to one of the CPUs
	// the process is allowed (dataplane.Config.PinShards).
	Pin bool
}

// RegisterFlags defines the I/O flags every serving daemon shares
// (-sockets, -engine, -pin) on fs, parsing into o, plus -gsotx, which is
// accepted and ignored until benchmark/ stops passing it (ROADMAP item
// A). Addr stays with the daemon: the default port differs per protocol.
func (o *EngineOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Sockets, "sockets", 0,
		"per-shard SO_REUSEPORT sockets with batched recvmmsg/sendmmsg I/O (0 = classic single-reader engine; batched mode runs one shard per socket, Linux)")
	fs.StringVar(&o.Engine, "engine", "batched",
		"batched-mode transport: batched (recvmmsg/sendmmsg) | uring (io_uring multishot recv, falls back to batched when the kernel can't) | single (portable fallback)")
	fs.BoolVar(&o.Pin, "pin", false, "lock each batched shard worker to its OS thread and pin it to one of the allowed CPUs (sched_setaffinity)")
	fs.Bool("gsotx", false, "ignored: batched engines coalesce same-destination replies into UDP_SEGMENT trains wherever the kernel and the rung take them (INCOD_NO_GSOTX=1 or -engine single serve per-datagram)")
}

// ListenEngine opens o.Addr and builds the serving engine in the mode
// o.Sockets selects. In batched mode cfg.Shards is superseded by the
// socket count (one shard owns one socket), and o.Engine picks the
// transport rung; a requested uring backend that the kernel cannot
// provide degrades to mmsg so the daemon always comes up — the chosen
// backend is reported truthfully in the /v1/dataplane stats, and so is
// whether the engine sends reply trains.
func ListenEngine(o EngineOptions, h dataplane.Handler, cfg dataplane.Config) (*dataplane.Engine, error) {
	cfg.PinShards = o.Pin
	if o.Sockets <= 0 {
		conn, err := net.ListenPacket("udp", o.Addr)
		if err != nil {
			return nil, err
		}
		return dataplane.New(conn, h, cfg), nil
	}
	conns, err := netio.ListenReusePortGroup("udp", o.Addr, o.Sockets)
	if err != nil {
		return nil, err
	}
	bcs, err := buildBatchConns(conns, o, cfg)
	if err != nil {
		// A mid-group uring failure closed some sockets (the ring owns
		// its socket); rebuild the whole group on the mmsg rung so the
		// daemon still comes up, uniformly.
		addr := conns[0].LocalAddr().String()
		for _, c := range conns {
			_ = c.Close()
		}
		log.Printf("%s: rebuilding socket group on the mmsg backend: %v", cfg.Name, err)
		if conns, err = netio.ListenReusePortGroup("udp", addr, o.Sockets); err != nil {
			return nil, err
		}
		o.Engine = "batched"
		if bcs, err = buildBatchConns(conns, o, cfg); err != nil {
			return nil, err
		}
	}
	return dataplane.NewBatchedConns(conns, bcs, h, cfg), nil
}

// buildBatchConns wraps each serving socket in the transport o.Engine
// selects.
func buildBatchConns(conns []net.PacketConn, o EngineOptions, cfg dataplane.Config) ([]netio.BatchConn, error) {
	engine := o.Engine
	if engine == "uring" {
		if err := netio.ProbeUring(); err != nil {
			log.Printf("%s: io_uring backend unavailable, falling back to mmsg: %v", cfg.Name, err)
			engine = "batched"
		}
	}
	bcs := make([]netio.BatchConn, len(conns))
	for i, c := range conns {
		switch engine {
		case "uring":
			// The provided-buffer ring absorbs eight full receive batches
			// (of 32) per shard before the multishot starves; the
			// submission ring carries only that one multishot receive, so
			// its depth mostly sizes the completion queue.
			bc, err := netio.NewUringConn(c, netio.UringConfig{
				Entries: 64,
				Buffers: 256,
				BufSize: cfg.MaxDatagram,
			})
			if err != nil {
				// The probe passed but this ring failed (fd limits, memlock):
				// degrade the whole group, releasing rings already built so
				// the group serves uniformly.
				log.Printf("%s: uring ring %d failed, falling back to mmsg: %v", cfg.Name, i, err)
				for j := 0; j < i; j++ {
					_ = bcs[j].Close()
				}
				return nil, fmt.Errorf("daemon: uring backend failed after probe: %w", err)
			}
			bcs[i] = bc
		case "single":
			bcs[i] = netio.NewSingleConn(c)
		default:
			bcs[i] = netio.NewBatchConn(c)
		}
	}
	return bcs, nil
}
