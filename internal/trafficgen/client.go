package trafficgen

import (
	"sync/atomic"
	"time"

	"incod/internal/telemetry"
)

// Client is the core of a load client: it numbers requests, keeps the
// books on what is pending, records latency and verdicts, resends per
// §9.2 ("the clients resend requests after a time-out period") and can
// keep a closed loop going. It does no I/O and reads no clock: a driver
// calls Submit, Receive and Poll from one goroutine (or under one lock)
// with the time, and transmits what the core hands to send.
type Client struct {
	// RetryTimeout is the §9.2 client timeout (Figure 7's ~100ms stall is
	// "the value of the client timeout"); 0 never resends. It is one
	// constant per run, so retry deadlines are a FIFO.
	RetryTimeout time.Duration
	// MaxRetries bounds resends per request; then it is given up on.
	MaxRetries int

	// Latency is first send to reply. Counters holds "sent", "recv", one
	// counter per verdict, "unmatched" (a reply to nothing pending: a
	// duplicate, a straggler), "retries", "gave_up", "overwritten" and
	// "encode_error".
	Latency  *telemetry.Histogram
	Counters *telemetry.AtomicCounters

	app  App
	send func(datagram []byte)
	n    uint64
	sent *atomic.Uint64 // Counters' "sent": read per request by a pacer
	// pending is keyed by the app's reply key. abandoned counts requests
	// no longer in it that nothing answered: given up on, or overwritten
	// when a 16-bit wire id wrapped onto a slot still waiting.
	pending   map[uint64]request
	abandoned int
	retryq    []retry // one entry per transmission, oldest at head
	head      int
	loop      bool
}

type request struct {
	first, last time.Duration
	datagram    []byte // kept to resend; nil when RetryTimeout is 0
	retries     int
}

// retry is due RetryTimeout after sent, if key's request is still
// pending and that transmission is still its last.
type retry struct {
	key  uint64
	sent time.Duration
}

// NewClient returns a core generating app's traffic through send, which
// must not block (a driver queues). A retry deadline is queued before
// send is called.
func NewClient(app App, send func(datagram []byte)) *Client {
	counters := telemetry.NewAtomicCounters()
	return &Client{MaxRetries: 10, Latency: telemetry.NewHistogram(), Counters: counters,
		app: app, send: send, sent: counters.Handle("sent"), pending: make(map[uint64]request)}
}

// Submit sends the next request — about arg when it is not nil — and
// returns the key its reply will carry.
func (c *Client) Submit(now time.Duration, arg []byte) (uint64, error) {
	c.n++
	datagram, key, err := c.app.Request(c.n, arg)
	if err != nil {
		c.Counters.Inc("encode_error", 1)
		return 0, err
	}
	if _, waiting := c.pending[key]; waiting {
		c.abandoned++
		c.Counters.Inc("overwritten", 1)
	}
	c.sent.Add(1)
	c.transmit(now, key, request{first: now}, datagram)
	return key, nil
}

func (c *Client) transmit(now time.Duration, key uint64, r request, datagram []byte) {
	r.last = now
	if c.RetryTimeout > 0 {
		r.datagram = datagram
		c.retryq = append(c.retryq, retry{key, now})
	}
	c.pending[key] = r
	c.send(datagram)
}

// Receive books one inbound datagram: the reply is validated, then
// matched, then its latency observed.
func (c *Client) Receive(now time.Duration, in []byte) {
	key, v := c.app.Reply(in)
	r, ok := c.pending[key]
	switch {
	case v == Bad:
	case !ok:
		v = "unmatched"
	default:
		delete(c.pending, key)
		c.Latency.Observe(now - r.first)
		c.Counters.Inc("recv", 1)
		c.next(now)
	}
	c.Counters.Inc(string(v), 1)
}

// Poll resends or gives up on every request whose retry deadline has
// passed.
func (c *Client) Poll(now time.Duration) {
	for ; c.head < len(c.retryq) && c.retryq[c.head].sent+c.RetryTimeout <= now; c.head++ {
		e := c.retryq[c.head]
		r, ok := c.pending[e.key]
		switch {
		case !ok || r.last != e.sent:
		case r.retries < c.MaxRetries:
			r.retries++
			c.Counters.Inc("retries", 1)
			c.transmit(now, e.key, r, r.datagram)
		default:
			delete(c.pending, e.key)
			c.abandoned++
			c.Counters.Inc("gave_up", 1)
			c.next(now)
		}
	}
	if c.head > len(c.retryq)/2 {
		c.retryq = c.retryq[:copy(c.retryq, c.retryq[c.head:])]
		c.head = 0
	}
}

// NextDeadline is when Poll next has something to look at.
func (c *Client) NextDeadline() (at time.Duration, ok bool) {
	if c.head == len(c.retryq) {
		return 0, false
	}
	return c.retryq[c.head].sent + c.RetryTimeout, true
}

// StartClosedLoop keeps k requests outstanding, submitting the next as
// soon as one is answered or given up on — the mutilate-style closed loop
// of the paper's testbed. During a leader shift all k burn and wait out
// the retry timeout, which is what produces Figure 7's ~100 ms
// zero-throughput gap.
func (c *Client) StartClosedLoop(now time.Duration, k int) {
	c.loop = true
	for i := 0; i < k; i++ {
		c.next(now)
	}
}

// Stop ends the closed loop; pending retries keep running.
func (c *Client) Stop() { c.loop = false }

func (c *Client) next(now time.Duration) {
	if c.loop {
		c.Submit(now, nil) // an encode error is counted; the loop shrinks by one
	}
}

// Sent is how many requests were submitted (resends not counted).
func (c *Client) Sent() uint64 { return c.sent.Load() }

// Outstanding is how many requests nothing answered: still pending, or
// abandoned.
func (c *Client) Outstanding() int { return len(c.pending) + c.abandoned }

// Report is the outcome of one run: the configured workload beside what
// was achieved and answered. incloadgen writes it as its -report JSON;
// the fleet replay keeps one per member, to verify the offered load
// arrived and to count wrong answers (Bad: replies that failed to
// decode).
type Report struct {
	Proto  string `json:"proto"`
	Target string `json:"target"`
	Phases int    `json:"phases"`

	Sent        uint64 `json:"sent"`
	Answered    uint64 `json:"answered"`
	Bad         uint64 `json:"bad"`
	Outstanding int    `json:"outstanding"`

	SendSeconds  float64 `json:"send_seconds"`
	AchievedKpps float64 `json:"achieved_kpps"`
	AnsweredKpps float64 `json:"answered_kpps"`

	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	MaxMicros float64 `json:"max_us"`

	// Error is non-empty when the run aborted (socket setup or a mid-run
	// send failure); the generating process also exits nonzero.
	Error string `json:"error,omitempty"`
}

// Measure fills in what the client achieved over a sending span.
func (r *Report) Measure(c *Client, span time.Duration) {
	r.Sent, r.Answered, r.Bad = c.Sent(), c.Counters.Get("recv"), c.Counters.Get("bad")
	r.Outstanding = c.Outstanding()
	r.SendSeconds = span.Seconds()
	if span > 0 {
		r.AchievedKpps = float64(r.Sent) / span.Seconds() / 1000
		r.AnsweredKpps = float64(r.Answered) / span.Seconds() / 1000
	}
	r.P50Micros = float64(c.Latency.Median()) / float64(time.Microsecond)
	r.P99Micros = float64(c.Latency.P99()) / float64(time.Microsecond)
	r.MaxMicros = float64(c.Latency.Max()) / float64(time.Microsecond)
}
