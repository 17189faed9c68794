package dns

import (
	"time"

	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// Client generates DNS query load against a server address and records
// end-to-end latency, standing in for the paper's OSNT traffic source.
type Client struct {
	addr   simnet.Addr
	server simnet.Addr
	sim    *simnet.Simulator
	net    *simnet.Network

	// NameFunc picks the queried name; defaults to a fixed name.
	NameFunc func() string

	nextID   uint16
	pending  map[uint16]simnet.Time
	Latency  *telemetry.Histogram
	Counters *telemetry.AtomicCounters
	cancel   func()
}

// NewClient attaches a DNS client at addr targeting server.
func NewClient(net *simnet.Network, addr, server simnet.Addr) *Client {
	c := &Client{
		addr:     addr,
		server:   server,
		sim:      net.Sim(),
		net:      net,
		NameFunc: func() string { return SequentialName(0) },
		pending:  make(map[uint16]simnet.Time),
		Latency:  telemetry.NewHistogram(),
		Counters: telemetry.NewAtomicCounters(),
	}
	net.Attach(c)
	return c
}

// Addr implements simnet.Node.
func (c *Client) Addr() simnet.Addr { return c.addr }

// Start issues Poisson queries at rateKpps until Stop.
func (c *Client) Start(rateKpps float64) {
	c.Stop()
	if rateKpps <= 0 {
		return
	}
	meanGap := time.Duration(float64(time.Second) / (rateKpps * 1000))
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		c.Query(c.NameFunc())
		gap := time.Duration(c.sim.Rand().ExpFloat64() * float64(meanGap))
		if gap <= 0 {
			gap = time.Nanosecond
		}
		c.sim.Schedule(gap, tick)
	}
	c.sim.Schedule(meanGap, tick)
	c.cancel = func() { stopped = true }
}

// Stop halts the query stream.
func (c *Client) Stop() {
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
}

// Query sends one A query for name.
func (c *Client) Query(name string) {
	c.nextID++
	id := c.nextID
	payload, err := Encode(NewQuery(id, name))
	if err != nil {
		c.Counters.Inc("encode_error", 1)
		return
	}
	c.pending[id] = c.sim.Now()
	c.Counters.Inc("sent", 1)
	c.net.Send(&simnet.Packet{
		Src: c.addr, Dst: c.server, SrcPort: 41000, DstPort: Port, Payload: payload,
	})
}

// Receive implements simnet.Node.
func (c *Client) Receive(pkt *simnet.Packet) {
	m, err := Decode(pkt.Payload, 0)
	if err != nil || !m.Response {
		c.Counters.Inc("bad_response", 1)
		return
	}
	sent, ok := c.pending[m.ID]
	if !ok {
		c.Counters.Inc("unmatched", 1)
		return
	}
	delete(c.pending, m.ID)
	c.Latency.Observe(c.sim.Now().Sub(sent))
	c.Counters.Inc("recv", 1)
	switch m.RCode {
	case RCodeNoError:
		if m.HasAnswer {
			c.Counters.Inc("resolved", 1)
		}
	case RCodeNXDomain:
		c.Counters.Inc("nxdomain", 1)
	default:
		c.Counters.Inc("other_rcode", 1)
	}
}

// Outstanding returns unanswered query count.
func (c *Client) Outstanding() int { return len(c.pending) }

// Retarget points subsequent queries at a new server.
func (c *Client) Retarget(server simnet.Addr) { c.server = server }
