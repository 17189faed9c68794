package fleet

import (
	"fmt"

	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/nictier"
	"incod/internal/paxos"
)

// Member is one supervised serving instance.
type Member struct {
	// Name uniquely identifies the member fleet-wide (e.g. "kvs-0").
	Name string
	// Kind is the member's flavor: "kvs", "dns" or "paxos".
	Kind string
	// Data is the UDP serving hostport load generators target.
	Data string
	// Orch is the member's orchestrator: the controller reads its status
	// and dataplane stats and pins its placement.
	Orch *daemon.Orchestrator

	spec KindSpec
	stop func()
}

// Close stops the control plane and drains the engine of a member
// StartMember started.
func (m Member) Close() { m.stop() }

// StartMember builds one member of kind in this process and starts it
// serving, wired as the kind's daemon wires itself with -nictier and
// -policy static-host: on its own loopback UDP engine, with its NIC tier
// attached and its placement held on the host until the fleet pins it.
// A kvs member serves a sharded store, a dns member the 16-name demo
// zone incdnsd serves without -zone, a paxos member acceptor 0 with no
// learners.
func StartMember(kind, name string) (Member, error) {
	spec, err := LookupKind(kind)
	if err != nil {
		return Member{}, err
	}
	// No -ctrl: the controller calls the orchestrator directly. The
	// static-host policy takes no crossover.
	f := daemon.Flags{EngineOptions: daemon.EngineOptions{Addr: "127.0.0.1:0"}, Policy: "static-host", NICTier: true}
	cfg := dataplane.Config{Name: name}
	var h dataplane.Handler
	var tier nictier.Tier
	switch kind {
	case "kvs":
		kh := kvs.NewHandler(kvs.NewShardedStore(0, 0))
		h, tier = kh, nictier.NewKVS(kh)
	case "dns":
		zone := dns.NewZone()
		zone.PopulateSequential(replayDNSNames)
		h, tier = dns.NewHandler(zone), nictier.NewDNS(zone)
		cfg.MaxDatagram = 4096
	case "paxos":
		// With no learners the acceptor sends nothing but its replies.
		acc := paxos.NewLiveAcceptor(0, nil, nil)
		h, tier = acc, nictier.NewPaxosAcceptor(acc)
		cfg.Shards = 1
	}
	eng, err := daemon.ListenEngine(f.EngineOptions, h, cfg)
	if err != nil {
		return Member{}, fmt.Errorf("fleet: %s: %w", name, err)
	}
	d, err := f.Start(name, spec.Service, eng, nictier.NewService(spec.Service, eng, tier), spec.Curve)
	if err != nil {
		eng.Close()
		return Member{}, fmt.Errorf("fleet: %s: %w", name, err)
	}
	return Member{Name: name, Kind: kind, Data: eng.LocalAddr().String(), Orch: d.Orch, spec: spec, stop: d.Close}, nil
}

// StartMix starts n members, cycling through mix's kinds, and names each
// <kind>-<i>. On an error it closes the members it started.
func StartMix(mix []string, n int) ([]Member, error) {
	members := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		kind := mix[i%len(mix)]
		m, err := StartMember(kind, fmt.Sprintf("%s-%d", kind, i/len(mix)))
		if err != nil {
			for _, m := range members {
				m.Close()
			}
			return nil, err
		}
		members = append(members, m)
	}
	return members, nil
}
