package daemon

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"incod/internal/core"
	"incod/internal/dataplane"
	"incod/internal/power"
)

// Flags is a serving daemon's shared command line: the engine's I/O
// flags and the control plane's, which inckvsd, incdnsd and incpaxosd
// define alike and default each its own way.
type Flags struct {
	EngineOptions
	// Shards is the dataplane's shard workers (0 = GOMAXPROCS), which
	// batched mode supersedes with one per socket.
	Shards int
	// CrossKpps is the software/hardware crossover seeding the policy.
	CrossKpps float64
	// Policy is one of core.PolicyNames().
	Policy string
	// Ctrl serves the /v1 control API when non-empty.
	Ctrl string
	// NICTier attaches the daemon's emulated offload tier.
	NICTier bool
}

// Defaults is what one daemon's shared flags default to.
type Defaults struct {
	Addr      string
	Shards    int
	CrossKpps float64
	// TierHelp is -nictier's help text: what the daemon's tier is.
	TierHelp string
}

// RegisterFlags defines the serving daemons' shared flags on fs with d's
// defaults: -addr, -shards, -crossover, -policy, -ctrl and -nictier,
// the I/O flags -sockets, -engine and -pin, and -gsotx, which is
// accepted and ignored until benchmark/ stops passing it (ROADMAP item
// A).
func RegisterFlags(fs *flag.FlagSet, d Defaults) *Flags {
	f := new(Flags)
	fs.StringVar(&f.Addr, "addr", d.Addr, "UDP listen address")
	fs.IntVar(&f.Shards, "shards", d.Shards, "dataplane shard workers (0 = GOMAXPROCS)")
	fs.Float64Var(&f.CrossKpps, "crossover", d.CrossKpps, "software/hardware crossover (kpps)")
	fs.StringVar(&f.Policy, "policy", "threshold", "placement policy: "+strings.Join(core.PolicyNames(), " | "))
	fs.StringVar(&f.Ctrl, "ctrl", "", "control-plane HTTP address (e.g. :8080); empty disables")
	fs.BoolVar(&f.NICTier, "nictier", false, d.TierHelp)
	fs.IntVar(&f.Sockets, "sockets", 0,
		"per-shard SO_REUSEPORT sockets with batched recvmmsg/sendmmsg I/O (0 = classic single-reader engine; batched mode runs one shard per socket, Linux)")
	fs.StringVar(&f.Engine, "engine", "batched",
		"batched-mode transport: batched (recvmmsg/sendmmsg) | uring (io_uring multishot recv, falls back to batched when the kernel can't)")
	fs.BoolVar(&f.Pin, "pin", false, "lock each batched shard worker to its OS thread and pin it to one of the allowed CPUs (sched_setaffinity)")
	fs.Bool("gsotx", false, "ignored: batched engines coalesce same-destination replies into UDP_SEGMENT trains wherever the kernel and the rung take them (INCOD_NO_GSOTX=1 serves per-datagram)")
	return f
}

// Daemon is a started serving daemon: its engine serving and its
// control plane ticking.
type Daemon struct {
	// Orch is the daemon's orchestrator, its one service registered.
	Orch *Orchestrator
	name string
	eng  *dataplane.Engine
	ctrl *CtrlServer
}

// Start is the serving daemons' shared start, which does not block. It
// starts the control plane on f's policy, crossover and -ctrl with eng's
// Running as the readiness probe, meters eng's request total, surfaces
// eng's stats on /v1 and starts eng serving. name prefixes the log
// lines; service names the one registered service; tier is the -nictier
// service, nil to leave placement advisory.
func (f *Flags) Start(name, service string, eng *dataplane.Engine, tier core.Service, curve power.SoftwareCurve) (*Daemon, error) {
	orch, svc, ctrlSrv, err := StartControlPlane(StartOptions{
		Name: service, Policy: f.Policy, CrossKpps: f.CrossKpps,
		Curve: curve, CtrlAddr: f.Ctrl, Service: tier, Ready: eng.Running,
	})
	if err != nil {
		return nil, err
	}
	svc.UseCounter(eng.Handled)
	if err := orch.AttachDataplane(service, eng); err != nil {
		gracefulStop(name, ctrlSrv, orch)
		return nil, err
	}
	io, mode := "single-reader", "advisory"
	if eng.Batched() {
		io = fmt.Sprintf("batched/%s over %d sockets", eng.Backend(), f.Sockets)
	}
	if tier != nil {
		mode = "nictier"
	}
	log.Printf("%s: serving %s on %s (%s, policy %s, %s, crossover %.0f kpps)",
		name, service, eng.LocalAddr(), io, f.Policy, mode, f.CrossKpps)
	if ctrlSrv != nil {
		log.Printf("%s: control plane on http://%s/v1/services", name, ctrlSrv.Addr())
	}
	eng.Start()
	return &Daemon{Orch: orch, name: name, eng: eng, ctrl: ctrlSrv}, nil
}

// Wait serves until a signal: then the control plane stops, stop runs
// when non-nil (the learner's gap scanner), and the engine drains.
func (d *Daemon) Wait(stop func()) {
	// A signal (or a control-plane serve failure) drains the HTTP
	// server and stops the orchestrator, then the dataplane: queued
	// datagrams are still answered before the socket closes.
	OnShutdown(d.name, d.ctrl, d.Orch, func() {
		if stop != nil {
			stop()
		}
		d.eng.Close()
	})
	d.eng.Run()
	log.Printf("%s: shut down cleanly", d.name)
}

// Close stops the control plane and drains the engine, as a signal
// would: the exit path of a daemon that serves inside a larger program.
func (d *Daemon) Close() {
	gracefulStop(d.name, d.ctrl, d.Orch)
	d.eng.Close()
}

// StartOptions wires one daemon's shared control-plane setup.
type StartOptions struct {
	// Name registers the service (kvs, dns, paxos).
	Name string
	// Policy is one of core.PolicyNames().
	Policy string
	// CrossKpps is the software/hardware crossover seeding the policy
	// thresholds.
	CrossKpps float64
	// Curve is the workload's calibrated §4 software power curve: it
	// models RAPL for power-aware policies and calibrates the "power"
	// policy's watts trigger.
	Curve power.SoftwareCurve
	// CtrlAddr serves the /v1 control API when non-empty.
	CtrlAddr string
	// Service, when non-nil, is the placement-bearing workload (e.g. a
	// nictier.Service whose Shift flips the live dataplane). Nil
	// registers the advisory stand-in.
	Service core.Service
	// Ready, when non-nil, gates GET /v1/healthz (the daemons pass the
	// serving engine's Running). Nil leaves the endpoint always ready.
	Ready func() bool
}

// StartControlPlane builds the common daemon control plane: a started
// orchestrator with one service (o.Service, or the advisory stand-in
// when nil) under the selected policy (curve-calibrated via
// core.CalibratedPolicyByName), and (when enabled) the /v1 control
// server.
func StartControlPlane(o StartOptions) (*Orchestrator, *ManagedService, *CtrlServer, error) {
	pol, err := core.CalibratedPolicyByName(o.Policy, o.CrossKpps, o.Curve)
	if err != nil {
		return nil, nil, nil, err
	}
	orch := NewOrchestrator(0)
	svc, err := orch.Register(o.Name, ServiceConfig{
		Service: o.Service, Policy: pol, Model: CurveModel(o.Curve),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	orch.SetReady(o.Ready)
	orch.Start()
	var ctrl *CtrlServer
	if o.CtrlAddr != "" {
		if ctrl, err = ServeCtrl(o.CtrlAddr, orch.Handler()); err != nil {
			orch.Close()
			return nil, nil, nil, err
		}
	}
	return orch, svc, ctrl, nil
}
