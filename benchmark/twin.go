package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/netio"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/power"
)

// The traced twin: this binary re-executed in place of a daemon. It
// builds the stack with the same public calls the daemon's main makes —
// ListenReusePortGroup, NewBatchConn or NewUringConn, NewBatchedConns or
// New, the protocol's handler, nictier.NewService, StartControlPlane,
// OnShutdown — in the same order and with the same values, and with
// -decorate on slips the timing decorators of decorate.go into the
// seams. With -decorate off it is the daemon again, and the gap between
// the two (trace.twin_gap_pct) says whether it still is.

type twinStack struct {
	t *tracer // nil with -decorate off
}

// batchedEngine opens the serving sockets and builds the engine the way
// daemon.ListenEngine does for -sockets > 0.
func (s *twinStack) batchedEngine(addr string, sockets int, engine string, gsoTx, pin bool,
	h dataplane.Handler, cfg dataplane.Config) (*dataplane.Engine, error) {
	cfg.PinShards, cfg.GSOTx = pin, gsoTx
	conns, err := netio.ListenReusePortGroup("udp", addr, sockets)
	if err != nil {
		return nil, err
	}
	if engine == "uring" {
		if err := netio.ProbeUring(); err != nil {
			return nil, fmt.Errorf("io_uring rung unavailable: %w", err)
		}
	}
	bcs := make([]netio.BatchConn, len(conns))
	for i, c := range conns {
		if engine == "uring" {
			// Same ring geometry as daemon.ListenEngine gives an engine
			// left at its default batch sizes.
			bcs[i], err = netio.NewUringConn(c, netio.UringConfig{
				Entries: 64, Buffers: 256, BufSize: cfg.MaxDatagram})
			if err != nil {
				return nil, err
			}
		} else {
			bcs[i] = netio.NewBatchConn(c)
		}
		if s.t != nil {
			if bcs[i], err = wrapConn(bcs[i], s.t); err != nil {
				return nil, err
			}
		}
	}
	return dataplane.NewBatchedConns(conns, bcs, h, cfg), nil
}

func (s *twinStack) handler(h dataplane.Handler, single bool) (dataplane.Handler, error) {
	if s.t == nil {
		return h, nil
	}
	return wrapHandler(h, s.t, single)
}

// service binds tier to eng as the daemon does, decorated when tracing.
func (s *twinStack) service(name string, eng *dataplane.Engine, tier nictier.Tier) (core.Service, error) {
	if s.t == nil {
		return nictier.NewService(name, eng, tier), nil
	}
	wt, err := wrapTier(tier, s.t)
	if err != nil {
		return nil, err
	}
	return nictier.NewService(name, &tracedDataplane{eng: eng, t: s.t}, wt), nil
}

func twinMain(args []string) error {
	fs := flag.NewFlagSet("twin", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload whose daemon to stand in for")
		decorate = fs.String("decorate", "off", "on: timing decorators in the seams; off: the bare stack")
		traceOut = fs.String("trace-out", "", "where to write the spans on exit (decorate on)")
		addr     = fs.String("addr", "", "UDP listen address")
		ctrl     = fs.String("ctrl", "", "control-plane HTTP address")
		sockets  = fs.Int("sockets", 0, "as the daemons' -sockets")
		pin      = fs.Bool("pin", false, "as the daemons' -pin")
		engine   = fs.String("engine", "batched", "as the daemons' -engine")
		gsoTx    = fs.Bool("gsotx", false, "as the daemons' -gsotx")
		useTier  = fs.Bool("nictier", false, "as the daemons' -nictier")
		zonePath = fs.String("zone", "", "as incdnsd's -zone")
		role     = fs.String("role", "acceptor", "as incpaxosd's -role; only acceptor is twinned")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*workload)
	if err != nil {
		return err
	}
	if *role != "acceptor" {
		return fmt.Errorf("role %q is not twinned", *role)
	}
	s := &twinStack{}
	if *decorate == "on" {
		s.t = newTracer()
		// The harness marks phase boundaries with SIGUSR1; spans carry the
		// epoch they fell in.
		usr := make(chan os.Signal, 4)
		signal.Notify(usr, syscall.SIGUSR1)
		go func() {
			for range usr {
				s.t.epoch.Add(1)
			}
		}()
	}

	var (
		eng     *dataplane.Engine
		tierSvc core.Service
		curve   power.SoftwareCurve
		cross   float64
		name    = w.Daemon
	)
	switch w.Proto {
	case protoKVS:
		store := kvs.NewShardedStore(0, 0)
		store.EnableHotKeys(16)
		handler := kvs.NewHandler(store)
		h, err := s.handler(handler, false)
		if err != nil {
			return err
		}
		eng, err = s.batchedEngine(*addr, *sockets, *engine, *gsoTx, *pin, h,
			dataplane.Config{Name: name, ShardBy: kvs.ShardByKey})
		if err != nil {
			return err
		}
		if *useTier {
			if tierSvc, err = s.service("kvs", eng, nictier.NewKVS(handler)); err != nil {
				return err
			}
		}
		curve, cross = power.MemcachedMellanox, 80
	case protoDNS:
		zone := dns.NewZone()
		if err := loadZone(zone, *zonePath); err != nil {
			return err
		}
		h, err := s.handler(dns.NewHandler(zone), false)
		if err != nil {
			return err
		}
		eng, err = s.batchedEngine(*addr, *sockets, *engine, *gsoTx, *pin, h,
			dataplane.Config{Name: name, MaxDatagram: 4096})
		if err != nil {
			return err
		}
		if *useTier {
			if tierSvc, err = s.service("dns", eng, nictier.NewDNS(zone)); err != nil {
				return err
			}
		}
		curve, cross = power.NSDServer, 150
	case protoPaxos:
		// No learners, as the workload starts the acceptor: votes go back
		// to the proposer only, and the fan-out sender is never called.
		acc := paxos.NewLiveAcceptor(0, nil, func(string, paxos.Msg) {})
		h, err := s.handler(acc, true)
		if err != nil {
			return err
		}
		conn, err := net.ListenPacket("udp", *addr)
		if err != nil {
			return err
		}
		if s.t != nil {
			conn = &packetConn{PacketConn: conn, t: s.t}
		}
		eng = dataplane.New(conn, h, dataplane.Config{Name: name, Shards: 1})
		if *useTier {
			if tierSvc, err = s.service("paxos", eng, nictier.NewPaxosAcceptor(acc)); err != nil {
				return err
			}
		}
		curve, cross = power.LibpaxosLeader, 150
	}

	orch, svc, ctrlSrv, err := daemon.StartControlPlane(daemon.StartOptions{
		Name: w.Service, Policy: "threshold", CrossKpps: cross,
		Curve: curve, CtrlAddr: *ctrl, Service: tierSvc, Ready: eng.Running,
	})
	if err != nil {
		return err
	}
	defer orch.Close()
	svc.UseCounter(eng.Handled)
	if err := orch.AttachDataplane(w.Service, eng); err != nil {
		return err
	}
	daemon.OnShutdown(name+"-twin", ctrlSrv, orch, eng.Close)
	eng.Run()
	if s.t != nil && *traceOut != "" {
		if err := s.t.write(*traceOut, w.Name); err != nil {
			return err
		}
	}
	log.Printf("%s-twin: shut down cleanly", name)
	return nil
}

// loadZone reads incdnsd's "name ipv4 [ttl]" zone format, which is all
// writeZone produces.
func loadZone(zone *dns.Zone, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		ip := net.ParseIP(fields[1]).To4()
		if ip == nil {
			return fmt.Errorf("%s: bad IPv4 %q", path, fields[1])
		}
		zone.Add(fields[0], [4]byte{ip[0], ip[1], ip[2], ip[3]}, 300)
	}
	return sc.Err()
}
