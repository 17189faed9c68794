package simhost

import (
	"time"

	"incod/internal/simnet"
	"incod/internal/trafficgen"
)

// Client is the sim driver of the load generator: trafficgen's client
// core as a node on the simulated network, with the simulator's clock
// for time, its random source for Poisson interarrival gaps and one
// scheduled event at the head retry deadline. The core's Latency,
// Counters, RetryTimeout and MaxRetries are this client's.
type Client struct {
	*trafficgen.Client
	sim    *simnet.Simulator
	addr   simnet.Addr
	server simnet.Addr
	stream int  // the open-loop stream running; Start and Stop retire it
	armed  bool // an expire event is scheduled
}

// NewClient attaches a client at addr sending app's traffic to server.
func NewClient(net *simnet.Network, addr, server simnet.Addr, app trafficgen.App) *Client {
	c := &Client{sim: net.Sim(), addr: addr, server: server}
	c.Client = trafficgen.NewClient(app, func(datagram []byte) {
		net.Send(&simnet.Packet{Src: addr, Dst: c.server, Payload: datagram})
		c.arm()
	})
	net.Attach(c)
	return c
}

func (c *Client) now() time.Duration { return time.Duration(c.sim.Now()) }

// arm schedules expire at the head retry deadline, unless it already is.
func (c *Client) arm() {
	if at, ok := c.NextDeadline(); ok && !c.armed {
		c.armed = true
		c.sim.ScheduleAt(simnet.Time(at), c.expire)
	}
}

func (c *Client) expire() {
	c.Poll(c.now()) // still armed: what it resends must not schedule a second event
	c.armed = false
	c.arm()
}

// Addr implements simnet.Node.
func (c *Client) Addr() simnet.Addr { return c.addr }

// Receive implements simnet.Node.
func (c *Client) Receive(pkt *simnet.Packet) { c.Client.Receive(c.now(), pkt.Payload) }

// Retarget points subsequent requests (and retries) at a new server — the
// controller "modifies switch forwarding rules to send messages to the
// new leader" (§9.2).
func (c *Client) Retarget(server simnet.Addr) { c.server = server }

// Submit sends one request now — about arg when it is not nil: the key,
// the name, the value to propose — and returns its reply key.
func (c *Client) Submit(arg []byte) uint64 {
	key, _ := c.Client.Submit(c.now(), arg) // an encode error is counted
	return key
}

// Start begins issuing requests at Poisson intervals at the given rate
// (kpps) until Stop, replacing any running stream.
func (c *Client) Start(kpps float64) { c.start(kpps * 1000) }

func (c *Client) start(rate float64) {
	c.Stop()
	if rate <= 0 {
		return
	}
	meanGap := time.Duration(float64(time.Second) / rate)
	stream := c.stream
	var tick func()
	tick = func() {
		if stream == c.stream {
			c.Submit(nil)
			gap := time.Duration(c.sim.Rand().ExpFloat64() * float64(meanGap))
			c.sim.Schedule(max(gap, time.Nanosecond), tick)
		}
	}
	c.sim.Schedule(meanGap, tick)
}

// StartClosedLoop keeps k requests outstanding in place of any stream.
func (c *Client) StartClosedLoop(k int) {
	c.Stop()
	c.Client.StartClosedLoop(c.now(), k)
}

// Stop halts the stream and the closed loop (outstanding retries keep
// running).
func (c *Client) Stop() {
	c.stream++
	c.Client.Stop()
}

// Run schedules the profile from now — each segment offered at its
// from-rate, the simulated experiments being stepped — and returns when
// it ends.
func (c *Client) Run(p trafficgen.Profile) simnet.Time {
	var at time.Duration
	for _, seg := range p {
		c.sim.Schedule(at, func() { c.start(seg.From) })
		at += seg.Dur
	}
	c.sim.Schedule(at, c.Stop)
	return c.sim.Now().Add(at)
}
