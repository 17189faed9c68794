// Package protocol is the one table of the services this repository
// serves: a Row each for LaKe's KVS, Emu's DNS and P4xos's acceptor. The
// daemons, the fleet's members, the simulator's stacks, the chaos stacks
// and the scenario runner all build a service from its row, so it stays
// the same service whether the host or the NIC serves it, on real
// sockets or on simnet. The package imports only the protocols, their
// tiers, the dataplane and the power and board models, so it sits below
// daemon and simhost.
package protocol

import (
	"cmp"
	"fmt"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/fpga"
	"incod/internal/kvs"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/power"
)

// Row is one protocol.
type Row struct {
	// Name is the protocol's service name, fleet kind, scenario app and
	// trafficgen protocol.
	Name string
	// Addr, Shards and CrossKpps are the daemon's -addr, -shards and
	// -crossover defaults (Shards a fleet member's too, CrossKpps a
	// scenario's), and TierHelp is its -nictier help text.
	Addr      string
	Shards    int
	CrossKpps float64
	TierHelp  string
	// MaxDatagram bounds the engine's datagrams (0 = the dataplane's).
	MaxDatagram int
	// Curve is the §4 software power curve of the role the tier serves.
	Curve power.SoftwareCurve
	// Design is the bitstream the card runs while the service is on it.
	Design fpga.Config
	// HitRatio is what the fleet predicts for a tier yet to serve.
	HitRatio float64
	// DemoNames is the size of the zone a server built with none serves.
	DemoNames int

	build func(Options) Server
}

// Options are what the callers that build one row give it differently.
type Options struct {
	// Shards and MaxEntries partition and bound the KVS store (0 =
	// GOMAXPROCS and kvs.DefaultMaxEntries).
	Shards, MaxEntries int
	// Zone is the DNS zone to serve; nil serves Names sequential names
	// (0 = the row's DemoNames).
	Zone  *dns.Zone
	Names int
	// ID, Learners and Send are the Paxos acceptor's id, the learners it
	// sends its votes to, and how.
	ID       uint16
	Learners []string
	Send     paxos.Sender
}

// Server is a built row: the host handler, the offload tier in front of
// it, and the store (KVS) or zone (DNS) they serve.
type Server struct {
	Handler dataplane.Handler
	Tier    nictier.Tier
	Store   *kvs.ShardedStore
	Zone    *dns.Zone
}

// Build builds the row's host handler and tier over fresh state.
func (r Row) Build(o Options) Server { return r.build(o) }

const demoNames = 16

// The rows.
var (
	KVS = Row{
		Name: "kvs", Addr: ":11211", CrossKpps: 80,
		TierHelp: "attach the emulated NIC offload tier (LaKe-style lookaside cache): policy shifts become real dataplane transitions",
		Curve:    power.MemcachedMellanox, Design: fpga.LaKeDesign,
		// A Zipf workload lands most GETs in LaKe's on-card cache.
		HitRatio: 0.9,
		build:    buildKVS,
	}
	DNS = Row{
		Name: "dns", Addr: ":5353", CrossKpps: 150,
		TierHelp: "attach the emulated NIC offload tier (Emu-DNS-style answer table): policy shifts become real dataplane transitions",
		// DNS datagrams are small; a tight bound also caps the engine's
		// overload memory (see the dataplane package doc).
		MaxDatagram: 4096,
		Curve:       power.NSDServer, Design: fpga.EmuDNSDesign,
		// Emu DNS holds the whole zone: only out-of-zone names miss.
		HitRatio:  0.95,
		DemoNames: demoNames,
		build:     buildDNS,
	}
	Paxos = Row{
		Name: "paxos", Addr: ":0", Shards: 1, CrossKpps: 150,
		TierHelp: "acceptor role: attach the emulated P4xos acceptor fast path; policy shifts hand the acceptor state between host and NIC",
		Curve:    power.LibpaxosAcceptor, Design: fpga.P4xosDesign,
		// P4xos acceptors handle every classified consensus message.
		HitRatio: 1.0,
		build:    buildAcceptor,
	}
)

// Lookup returns the row named name.
func Lookup(name string) (Row, error) {
	for _, r := range []Row{KVS, DNS, Paxos} {
		if r.Name == name {
			return r, nil
		}
	}
	return Row{}, fmt.Errorf("unknown protocol %q (want kvs, dns or paxos)", name)
}

// buildKVS is a sharded store whose GET path feeds a per-shard top 16
// (hot_keys in /v1/dataplane), its memcached handler and the LaKe tier.
func buildKVS(o Options) Server {
	store := kvs.NewShardedStore(o.Shards, o.MaxEntries)
	store.EnableHotKeys(16)
	h := kvs.NewHandler(store)
	return Server{Handler: h, Tier: nictier.NewKVS(h), Store: store}
}

// buildDNS is a zone, whole before any shard worker reads it lock-free,
// its handler and the Emu-DNS answer table.
func buildDNS(o Options) Server {
	zone := o.Zone
	if zone == nil {
		zone = dns.NewZone()
		zone.PopulateSequential(cmp.Or(o.Names, demoNames))
	}
	return Server{Handler: dns.NewHandler(zone), Tier: nictier.NewDNS(zone), Zone: zone}
}

// buildAcceptor is a live acceptor and the P4xos fast path that takes
// its vote state over on a shift.
func buildAcceptor(o Options) Server {
	acc := paxos.NewLiveAcceptor(o.ID, o.Learners, o.Send)
	return Server{Handler: acc, Tier: nictier.NewPaxosAcceptor(acc)}
}
