package simhost

import (
	"container/list"
	"math/rand"
	"net/netip"
	"time"

	"incod/internal/fpga"
	"incod/internal/kvs"
	"incod/internal/nictier"
	"incod/internal/power"
	"incod/internal/protocol"
	"incod/internal/simnet"
)

// Model is the paper's calibrated cost of one card-and-host pair: what
// the live handler and tier do not know about the hardware they stand
// for. It is data attached to a Node, not a second server.
type Model struct {
	// Curve is the host software's §4 power curve and peak rate.
	Curve power.SoftwareCurve
	// Design is the bitstream the card runs while the service is on it.
	Design fpga.Config
	// HostTime draws the host software's service time at the given
	// utilization of its peak (0..1).
	HostTime func(rng *rand.Rand, util float64) time.Duration
	// CardTime draws the card's service time for request req at the
	// given utilization of the hardware pipeline (0..1).
	CardTime func(rng *rand.Rand, req []byte, util float64) time.Duration
	// Reset, if set, drops whatever CardTime remembers; the node calls it
	// when the card's memories lose their state.
	Reset func()
	// Passthrough is the card's store-and-forward cost while its module
	// is parked and the board acts as a plain NIC.
	Passthrough time.Duration
	// PCIe is the round trip added to the host's time for a request a
	// lit card could not serve itself.
	PCIe time.Duration
	// Strategy is how the card parks while the host serves (§9.2).
	Strategy IdleStrategy
	// Metered, if set, picks the requests the curves were calibrated on:
	// only those are counted into the rates and shed at saturation. The
	// rest (a Paxos leader's acceptor feedback) is served uncounted.
	Metered func(req []byte) bool
}

func (m *Model) metered(req []byte) bool { return m.Metered == nil || m.Metered(req) }

// IdleStrategy selects how the card parks while the service runs in
// software. §9.2 weighs three options and the paper picks ParkReset; the
// others are implemented for the ablation study.
type IdleStrategy int

// Idle strategies from §9.2.
const (
	// ParkReset keeps the design programmed but inactive: memories in
	// reset (cached state lost), module clocks gated. The paper's choice —
	// "the best of both performance and power efficiency worlds".
	ParkReset IdleStrategy = iota
	// KeepWarm keeps the memories powered and the tables intact (the
	// tier's Stage and Park are skipped), for an instant shift at the
	// cost of reduced power saving.
	KeepWarm
	// PartialReconfig reprograms the board to the plain reference NIC,
	// maximizing the saving but causing "a momentary traffic halt" in
	// both directions of the shift.
	PartialReconfig
)

// String names the strategy.
func (s IdleStrategy) String() string {
	switch s {
	case KeepWarm:
		return "keep-warm"
	case PartialReconfig:
		return "partial-reconfig"
	}
	return "park-reset"
}

// ReconfigHalt is how long partial reconfiguration stops all traffic
// through the card (tens of milliseconds on a Virtex-7 class device).
const ReconfigHalt = 40 * time.Millisecond

// light brings the board to serving state as the strategy prescribes.
func (n *Node) light() {
	if n.m.Strategy == PartialReconfig {
		if n.board.Config().Name != n.m.Design.Name {
			n.board.Reprogram(n.m.Design)
			n.haltUntil = n.sim.Now().Add(ReconfigHalt)
		}
		return
	}
	n.board.SetMemoryReset(false)
	n.board.SetClockGating(false)
	n.board.SetModuleActive(true)
}

// park puts the board in the strategy's idle state; the card keeps
// forwarding as a NIC.
func (n *Node) park() {
	switch n.m.Strategy {
	case KeepWarm:
		n.board.SetModuleActive(false)
		return
	case PartialReconfig:
		n.board.Reprogram(fpga.ReferenceNIC)
		n.haltUntil = n.sim.Now().Add(ReconfigHalt)
	default:
		n.board.SetModuleActive(false)
		n.board.SetMemoryReset(true)
		n.board.SetClockGating(true)
	}
	if n.m.Reset != nil {
		n.m.Reset()
	}
}

// serviceTime meters one request and draws the service time of whoever
// served it: the card when the tier consumed it, the host otherwise —
// across PCIe when a lit card passed it up.
func (n *Node) serviceTime(req []byte, offloaded bool) time.Duration {
	rng := n.sim.Rand()
	if offloaded {
		d := n.m.CardTime(rng, req, n.cardLoad())
		n.CardLatency.Observe(d)
		return d
	}
	if n.m.metered(req) {
		n.count(n.hostRate)
	}
	d := n.m.HostTime(rng, n.HostUtilization())
	if n.lit {
		d += n.m.PCIe
	}
	n.HostLatency.Observe(d)
	return d
}

// cardLoad is the card-observed rate as a fraction of the pipeline's
// peak (0 while the module is inactive).
func (n *Node) cardLoad() float64 {
	peak := n.board.PeakKpps()
	if peak <= 0 {
		return 0
	}
	return min(n.RateKpps()/peak, 1)
}

// Dropped reports how many datagrams the saturated host shed and how
// many a reconfiguring card lost.
func (n *Node) Dropped() (shed, halted uint64) { return n.shed, n.halted }

// RateKpps is the request rate the card's classifier observes, whoever
// serves it — the network controller's input (§9.1).
func (n *Node) RateKpps() float64 { return n.cardRate.Rate(time.Duration(n.sim.Now())) / 1000 }

// Observed is the monotonic count behind RateKpps: every metered request
// the card has seen, whoever served it — the orchestrator's rate input.
func (n *Node) Observed() uint64 { return n.cardRate.Total() }

// HostRateKpps is the rate of requests reaching the host software.
func (n *Node) HostRateKpps() float64 { return n.hostRate.Rate(time.Duration(n.sim.Now())) / 1000 }

// HostUtilization is the fraction of the host software's peak in use.
func (n *Node) HostUtilization() float64 { return n.m.Curve.Utilization(n.HostRateKpps()) }

// HostWatts is the whole server's wall power without the card.
func (n *Node) HostWatts() float64 { return n.m.Curve.Power(n.HostRateKpps()) }

// CardWatts is the card's in-server power increment (none for a model
// without a Design: the curve's server has only its plain NIC).
func (n *Node) CardWatts() float64 {
	if n.board == nil {
		return 0
	}
	return n.board.CardWatts(n.cardLoad())
}

// PowerWatts implements telemetry.PowerSource: server plus card, the
// §4.2 combined measurement.
func (n *Node) PowerWatts(simnet.Time) float64 { return n.HostWatts() + n.CardWatts() }

// expJitter returns an exponential jitter with the given mean.
func expJitter(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// queueing stretches a host service time as the server saturates: the
// (ρ-½)/(1-ρ) sojourn growth of a shared processor, capped at ρ = 0.99
// to keep the simulation stable at offered loads beyond peak.
func queueing(util float64, scale time.Duration) time.Duration {
	if util <= 0.5 {
		return 0
	}
	q := min(util, 0.99)
	return time.Duration(float64(scale) * (q - 0.5) / (1 - q))
}

// LaKe returns the §3.1 key-value store model, calibrated to §5.3:
// on-chip (BRAM) hits take "no more than 1.4µs"; DRAM hits 1.67µs
// median, 1.9µs p99 at 100 Kqps and up to 3µs p99 at 10 Mqps; a miss in
// the hardware, served by memcached on the host, is ~x10 longer (13.5µs
// median, 14.3µs p99). The live tier is one table; which of the card's
// two memories a hit would have come from is decided by a recency set
// the size of the on-chip layer.
func LaKe() *Model {
	l1 := recency{bound: fpga.OnChipValueEntries, at: make(map[uint64]*list.Element)}
	return &Model{
		Curve:  protocol.KVS.Curve,
		Design: protocol.KVS.Design,
		HostTime: func(rng *rand.Rand, util float64) time.Duration {
			return 13300*time.Nanosecond + expJitter(rng, 200*time.Nanosecond) + queueing(util, 4*time.Microsecond)
		},
		CardTime: func(rng *rand.Rand, req []byte, util float64) time.Duration {
			if l1.touch(kvs.ShardByKey(req, netip.AddrPort{})) {
				return min(1300*time.Nanosecond+expJitter(rng, 30*time.Nanosecond), 1400*time.Nanosecond)
			}
			d := 1600*time.Nanosecond + expJitter(rng, 65*time.Nanosecond)
			if util > 0 {
				d += time.Duration(util * float64(expJitter(rng, 250*time.Nanosecond)))
			}
			return d
		},
		Reset:       l1.flush,
		Passthrough: 600 * time.Nanosecond,
		PCIe:        300 * time.Nanosecond,
	}
}

// EmuDNS returns the §3.3 DNS model: NSD on the host at ~70x the
// latency of the Emu pipeline ("approximately x70 average and 99th
// percentile latency improvement"), a non-pipelined but shallow on-chip
// design with no external memories.
func EmuDNS() *Model {
	return &Model{
		Curve:  protocol.DNS.Curve,
		Design: protocol.DNS.Design,
		HostTime: func(rng *rand.Rand, util float64) time.Duration {
			return 88*time.Microsecond + expJitter(rng, 2*time.Microsecond) + queueing(util, 30*time.Microsecond)
		},
		CardTime: func(rng *rand.Rand, _ []byte, _ float64) time.Duration {
			return 1250*time.Nanosecond + expJitter(rng, 40*time.Nanosecond)
		},
		Passthrough: 600 * time.Nanosecond,
		PCIe:        300 * time.Nanosecond,
	}
}

// recency is a bounded most-recently-used set of key hashes.
type recency struct {
	bound int
	order list.List // front = most recent
	at    map[uint64]*list.Element
}

// touch makes k the most recent key and reports whether it was present.
func (r *recency) touch(k uint64) bool {
	if el, ok := r.at[k]; ok {
		r.order.MoveToFront(el)
		return true
	}
	if r.order.Len() >= r.bound {
		delete(r.at, r.order.Remove(r.order.Back()).(uint64))
	}
	r.at[k] = r.order.PushFront(k)
	return false
}

func (r *recency) flush() {
	r.order.Init()
	clear(r.at)
}

// keepWarm is the tier under the KeepWarm strategy: its table survives
// parking, so the two lifecycle steps that drop it are skipped. Warm
// still runs and installs only what the table lacks.
type keepWarm struct{ nictier.Tier }

func (keepWarm) Stage() error { return nil }
func (keepWarm) Park() error  { return nil }

// Stack is a protocol's live serving stack on a simulated card-and-host:
// the row's host handler on the node, its tier on the card, a real
// nictier.Service moving between them.
type Stack struct {
	*Node
	protocol.Server
	Service *nictier.Service
}

// NewStack builds row's server with o, its store in one partition, and
// attaches it at addr under cost model m, its tier bound to the node as
// the daemons bind it, under m's strategy.
func NewStack(net *simnet.Network, addr simnet.Addr, row protocol.Row, o protocol.Options, m *Model) *Stack {
	o.Shards = 1
	s := &Stack{Server: row.Build(o)}
	s.Node = NewNode(net, addr, s.Handler, 0, m)
	tier := s.Tier
	if m.Strategy == KeepWarm {
		tier = keepWarm{tier}
	}
	s.Service = nictier.NewService(row.Name, s.Node, tier)
	return s
}

// Preload stores the n keys kvs.SequentialKey names (0..n-1) of size
// bytes in the host store of a KVS stack.
func (s *Stack) Preload(n, size int) {
	for i := 0; i < n; i++ {
		s.Store.Set(kvs.SequentialKey(i), kvs.Entry{Value: make([]byte, size)})
	}
}
