package paxos

import (
	"encoding/binary"
	"time"

	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// Client is a Paxos proposer: it submits values to the leader at a
// controlled rate and resends after a timeout if no decision arrives —
// the §9.2 retry that lets a freshly shifted leader converge on the next
// sequence number ("the clients resend requests after a time-out period").
type Client struct {
	addr   simnet.Addr
	sim    *simnet.Simulator
	net    *simnet.Network
	id     uint16
	leader simnet.Addr

	// RetryTimeout is the §9.2 client timeout (Figure 7's ~100ms stall is
	// "the value of the client timeout").
	RetryTimeout time.Duration
	// MaxRetries bounds resends per request.
	MaxRetries int

	nextSeq uint64
	pending map[uint64]*pendingReq

	Latency  *telemetry.Histogram
	Counters *telemetry.AtomicCounters
	cancel   func()
	// closedLoop, when set, submits the next request on completion.
	closedLoop func()
}

type pendingReq struct {
	value    []byte
	sentAt   simnet.Time
	firstAt  simnet.Time
	retries  int
	timerGen int
}

// NewClient attaches a proposer targeting leader.
func NewClient(net *simnet.Network, addr simnet.Addr, id uint16, leader simnet.Addr) *Client {
	c := &Client{
		addr:         addr,
		sim:          net.Sim(),
		net:          net,
		id:           id,
		leader:       leader,
		RetryTimeout: 100 * time.Millisecond,
		MaxRetries:   10,
		pending:      make(map[uint64]*pendingReq),
		Latency:      telemetry.NewHistogram(),
		Counters:     telemetry.NewAtomicCounters(),
	}
	net.Attach(c)
	return c
}

// Addr implements simnet.Node.
func (c *Client) Addr() simnet.Addr { return c.addr }

// Retarget points subsequent requests (and retries) at a new leader —
// the controller "modifies switch forwarding rules to send messages to
// the new leader" (§9.2).
func (c *Client) Retarget(leader simnet.Addr) { c.leader = leader }

// Outstanding returns the number of undecided requests.
func (c *Client) Outstanding() int { return len(c.pending) }

// Submit proposes one value.
func (c *Client) Submit(value []byte) uint64 {
	c.nextSeq++
	seq := c.nextSeq
	req := &pendingReq{value: value, sentAt: c.sim.Now(), firstAt: c.sim.Now()}
	c.pending[seq] = req
	c.Counters.Inc("submitted", 1)
	c.sendRequest(seq, req)
	return seq
}

func (c *Client) sendRequest(seq uint64, req *pendingReq) {
	req.sentAt = c.sim.Now()
	req.timerGen++
	gen := req.timerGen
	c.net.Send(&simnet.Packet{Src: c.addr, Dst: c.leader, SrcPort: Port, DstPort: Port,
		Payload: Encode(Msg{
			Type:       MsgClientRequest,
			ClientID:   c.id,
			Seq:        seq,
			ClientAddr: c.addr,
			Value:      req.value,
		})})
	c.sim.Schedule(c.RetryTimeout, func() { c.maybeRetry(seq, gen) })
}

func (c *Client) maybeRetry(seq uint64, gen int) {
	req, ok := c.pending[seq]
	if !ok || req.timerGen != gen {
		return
	}
	if req.retries >= c.MaxRetries {
		delete(c.pending, seq)
		c.Counters.Inc("gave_up", 1)
		if c.closedLoop != nil {
			c.closedLoop()
		}
		return
	}
	req.retries++
	c.Counters.Inc("retries", 1)
	c.sendRequest(seq, req)
}

// Start submits fresh values at rateKpps (Poisson) until Stop.
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
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, c.nextSeq+1)
		c.Submit(v)
		gap := time.Duration(c.sim.Rand().ExpFloat64() * float64(meanGap))
		if gap <= 0 {
			gap = time.Nanosecond
		}
		c.sim.Schedule(gap, tick)
	}
	c.sim.Schedule(meanGap, tick)
	c.cancel = func() { stopped = true }
}

// StartClosedLoop keeps k requests outstanding, submitting the next value
// as soon as one decides (or is given up on) — the mutilate-style closed
// loop the paper's testbed uses. During a leader shift all k outstanding
// requests burn and wait out the retry timeout, which is exactly what
// produces Figure 7's ~100 ms zero-throughput gap.
func (c *Client) StartClosedLoop(k int) {
	c.Stop()
	stopped := false
	c.closedLoop = func() {
		if stopped {
			return
		}
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, c.nextSeq+1)
		c.Submit(v)
	}
	c.cancel = func() { stopped = true; c.closedLoop = nil }
	for i := 0; i < k; i++ {
		c.closedLoop()
	}
}

// Stop halts the submission stream (outstanding retries keep running).
func (c *Client) Stop() {
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
}

// Receive implements simnet.Node: decisions complete pending requests.
func (c *Client) Receive(pkt *simnet.Packet) {
	m, err := Decode(pkt.Payload)
	if err != nil {
		c.Counters.Inc("bad_msg", 1)
		return
	}
	if m.Type != MsgDecision || m.ClientID != c.id {
		c.Counters.Inc("unexpected", 1)
		return
	}
	req, ok := c.pending[m.Seq]
	if !ok {
		c.Counters.Inc("duplicate_decision", 1)
		return
	}
	delete(c.pending, m.Seq)
	c.Counters.Inc("decided", 1)
	c.Latency.Observe(c.sim.Now().Sub(req.firstAt))
	if c.closedLoop != nil {
		c.closedLoop()
	}
}
