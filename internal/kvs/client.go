package kvs

import (
	"fmt"
	"time"

	"incod/internal/memcache"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// MemcachedPort is the UDP port the card's packet classifier matches
// (§3.1).
const MemcachedPort = 11211

// Client is a mutilate-style memcached load generator (§9.2 uses mutilate
// with the Facebook ETC arrival distribution). It issues GETs (and an
// optional SET fraction) against a server address at a controlled rate and
// records end-to-end latency.
type Client struct {
	addr   simnet.Addr
	server simnet.Addr
	sim    *simnet.Simulator
	net    *simnet.Network

	// KeyFunc picks the key for each request (e.g. a Zipf sampler).
	KeyFunc func() string
	// SetFraction of requests are SETs; the rest are GETs.
	SetFraction float64
	// ValueSize is the SET payload size in bytes.
	ValueSize int
	// Poisson selects exponential (true) or uniform (false) interarrival.
	Poisson bool

	nextID  uint16
	pending map[uint16]simnet.Time

	Latency  *telemetry.Histogram
	Counters *telemetry.AtomicCounters
	cancel   func()
}

// NewClient attaches a client node at addr targeting server.
func NewClient(net *simnet.Network, addr, server simnet.Addr) *Client {
	c := &Client{
		addr:     addr,
		server:   server,
		sim:      net.Sim(),
		net:      net,
		KeyFunc:  func() string { return "key" },
		Poisson:  true,
		pending:  make(map[uint16]simnet.Time),
		Latency:  telemetry.NewHistogram(),
		Counters: telemetry.NewAtomicCounters(),
	}
	net.Attach(c)
	return c
}

// Addr implements simnet.Node.
func (c *Client) Addr() simnet.Addr { return c.addr }

// Preload stores n sequentially named keys ("key-0".."key-n-1") of size
// bytes directly via SETs, so caches and stores have data to hit.
func (c *Client) Preload(n, size int) {
	for i := 0; i < n; i++ {
		c.sendRequest(memcache.Request{
			Op:    memcache.OpSet,
			Key:   fmt.Sprintf("key-%d", i),
			Value: make([]byte, size),
		})
	}
}

// Start begins issuing requests at the given rate (kpps) until Stop.
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
		c.sendNext()
		gap := meanGap
		if c.Poisson {
			gap = time.Duration(c.sim.Rand().ExpFloat64() * float64(meanGap))
			if gap <= 0 {
				gap = time.Nanosecond
			}
		}
		c.sim.Schedule(gap, tick)
	}
	c.sim.Schedule(meanGap, tick)
	c.cancel = func() { stopped = true }
}

// Stop halts the request stream.
func (c *Client) Stop() {
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
}

func (c *Client) sendNext() {
	req := memcache.Request{Op: memcache.OpGet, Key: c.KeyFunc()}
	if c.SetFraction > 0 && c.sim.Rand().Float64() < c.SetFraction {
		req = memcache.Request{Op: memcache.OpSet, Key: c.KeyFunc(), Value: make([]byte, c.valueSize())}
	}
	c.sendRequest(req)
}

func (c *Client) valueSize() int {
	if c.ValueSize > 0 {
		return c.ValueSize
	}
	return 64
}

func (c *Client) sendRequest(req memcache.Request) {
	c.nextID++
	id := c.nextID
	c.pending[id] = c.sim.Now()
	c.Counters.Inc("sent", 1)
	c.net.Send(&simnet.Packet{
		Src:     c.addr,
		Dst:     c.server,
		SrcPort: 40000,
		DstPort: MemcachedPort,
		Payload: memcache.EncodeFrame(memcache.Frame{RequestID: id, Total: 1}, memcache.EncodeRequest(req)),
	})
}

// Receive implements simnet.Node: match responses and record latency.
func (c *Client) Receive(pkt *simnet.Packet) {
	frame, body, err := memcache.DecodeFrame(pkt.Payload)
	if err != nil {
		c.Counters.Inc("bad_frame", 1)
		return
	}
	sent, ok := c.pending[frame.RequestID]
	if !ok {
		c.Counters.Inc("unmatched", 1)
		return
	}
	delete(c.pending, frame.RequestID)
	c.Latency.Observe(c.sim.Now().Sub(sent))
	resp, err := memcache.ParseResponse(body)
	if err != nil {
		c.Counters.Inc("bad_response", 1)
		return
	}
	c.Counters.Inc("recv", 1)
	if resp.Hit {
		c.Counters.Inc("hit", 1)
	}
}

// Outstanding returns the number of unanswered requests.
func (c *Client) Outstanding() int { return len(c.pending) }

// Retarget points subsequent requests at a new server address (used when
// the on-demand controller moves the service).
func (c *Client) Retarget(server simnet.Addr) { c.server = server }
