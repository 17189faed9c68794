package trafficgen

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/netio"
)

const (
	// ioBatch is the datagrams per recvmmsg / sendmmsg call on each
	// client socket — the dataplane's own batch size.
	ioBatch = 32
	// tickEvery is the pacer's period: each tick sends what the profile
	// says is due by now and polls the retry deadlines.
	tickEvery = time.Millisecond
	// maxCatchUp bounds the burst one tick sends after a stall.
	maxCatchUp = 4096
	// linger is how long a run waits for stragglers after its last send.
	linger = 300 * time.Millisecond
	// A preload keeps at most preloadWindow SETs unanswered, sends a SET
	// again when its STORED has not come within preloadResend, and gives
	// up when preloadStall passes with no new key stored.
	preloadWindow = 128
	preloadResend = 20 * time.Millisecond
	preloadStall  = 2 * time.Second
)

// Sockets is the socket driver: it runs a Client against a real UDP
// server. One netio.BatchConn per socket gives every flow batched send
// and receive, so one pacing goroutine can offer more than a server's
// single-reader mode absorbs; distinct source ports make a reuseport
// server spread the flows across its shard sockets.
type Sockets struct {
	conns   []netio.BatchConn
	dst     netip.AddrPort // where unconnected sockets send; zero when connected
	epoch   time.Time
	readers sync.WaitGroup

	// mu serializes the core, which is single-threaded by contract,
	// between the pacer and the receivers, and guards the send queue and
	// a preload's books.
	mu     sync.Mutex
	client *Client
	pre    *preloadBook
	txq    []netio.Message
	next   int
	err    error
}

// Dial opens n sockets toward target and starts their receivers.
// Connected sockets hear only the target and learn of a dead one from
// their next send. When replies come from a third party — a learner
// answers what a leader was sent — connected must be false: the sockets
// are then bound, unconnected, on the local address the route to target
// selects, which is an address the third party can send to where the
// wildcard is not.
func Dial(target string, n int, connected bool) (*Sockets, error) {
	d := &Sockets{epoch: time.Now()}
	for i := 0; i < n; i++ {
		c, err := net.Dial("udp", target)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("dial %s: %w", target, err)
		}
		conn := c.(*net.UDPConn)
		if !connected {
			d.dst = conn.RemoteAddr().(*net.UDPAddr).AddrPort()
			local := conn.LocalAddr().(*net.UDPAddr).IP
			conn.Close()
			if conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: local}); err != nil {
				d.Close()
				return nil, fmt.Errorf("listen on %s: %w", local, err)
			}
		}
		bc := netio.NewBatchConn(conn)
		d.conns = append(d.conns, bc)
		d.readers.Add(1)
		go d.receive(bc)
	}
	return d, nil
}

// Open readies a paced run of proto's traffic at target over n sockets:
// kvs, dns, paxos (Phase2A votes at an acceptor) or proposer (client
// requests at a leader, resent after the §9.2 client timeout, 100 ms).
// Requests pick among keys Zipf-popular keys, and every kvs key is SET
// and its STORED awaited first, so a GET hits. It returns the driver,
// which the caller closes, and the client to hand its Run.
func Open(proto, target string, n int, keys uint64) (*Sockets, *Client, error) {
	// A proposer's decisions come from the learner, not from target.
	d, err := Dial(target, max(n, 1), proto != "proposer")
	if err != nil {
		return nil, nil, err
	}
	sampler := NewZipfKeys(rand.New(rand.NewSource(time.Now().UnixNano())), keys, 1.06)
	var app App
	var retry time.Duration
	switch proto {
	case "kvs":
		app = &KVS{Key: sampler.Next}
		err = d.preload(keys)
	case "dns":
		app = &DNS{Name: func() string { return dns.SequentialName(int(sampler.NextIndex())) }}
	case "paxos":
		app = Vote{Value: []byte("incloadgen-cmd")}
	case "proposer":
		app, retry = &Proposer{Addr: d.LocalAddr()}, 100*time.Millisecond
	default:
		err = fmt.Errorf("unknown protocol %q", proto)
	}
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	c := NewClient(app, d.Send)
	c.RetryTimeout = retry
	return d, c, nil
}

// preload SETs key-0 .. key-<keys-1> outside any client's books, closed
// loop: a SET goes out under its key's number as the wire id, at most
// preloadWindow of them unanswered, and one whose STORED has not come
// within preloadResend goes again — a server's socket buffer drops what a
// burst overruns. It fails, naming how many keys were stored, when
// preloadStall passes with no new one.
func (d *Sockets) preload(keys uint64) error {
	b := &preloadBook{}
	d.mu.Lock()
	d.pre = b
	defer func() {
		d.pre = nil
		d.mu.Unlock()
	}()
	var next, stored uint64
	progress := time.Now()
	for b.stored < keys {
		now := time.Now()
		if b.stored > stored {
			stored, progress = b.stored, now
		} else if now.Sub(progress) >= preloadStall {
			return fmt.Errorf("preload: %d of %d keys stored, none in the last %v", b.stored, keys, preloadStall)
		}
		for i := range b.out {
			if now.Sub(b.out[i].sent) >= preloadResend {
				d.Send(setKey(b.out[i].key))
				b.out[i].sent = now
			}
		}
		for ; len(b.out) < preloadWindow && next < keys && !b.waiting(uint16(next)); next++ {
			b.out = append(b.out, preloadSet{key: next, sent: now})
			d.Send(setKey(next))
		}
		if err := d.Flush(); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		d.mu.Unlock()
		time.Sleep(tickEvery)
		d.mu.Lock()
	}
	return nil
}

// setKey is the preload SET of kvs.SequentialKey(key), under the key's
// number as its wire id.
func setKey(key uint64) []byte {
	return kvsDatagram(uint16(key), memcache.Request{Op: memcache.OpSet,
		Key: kvs.SequentialKey(int(key)), Value: []byte("value")})
}

// preloadSet is one preload SET awaiting its STORED.
type preloadSet struct {
	key  uint64
	sent time.Time
}

// preloadBook is a preload's account, guarded by Sockets.mu: the SETs
// out, at most one per wire id, and how many keys are stored.
type preloadBook struct {
	out    []preloadSet
	stored uint64
}

// waiting reports whether a SET under wire id is out.
func (b *preloadBook) waiting(id uint16) bool {
	for _, s := range b.out {
		if uint16(s.key) == id {
			return true
		}
	}
	return false
}

// ack counts the key a STORED in answers, if its SET is still out.
func (b *preloadBook) ack(in []byte) {
	f, body, err := memcache.DecodeFrame(in)
	if err != nil || string(body) != memcache.StatusStored+"\r\n" {
		return
	}
	for i, s := range b.out {
		if uint16(s.key) == f.RequestID {
			b.out[i] = b.out[len(b.out)-1]
			b.out = b.out[:len(b.out)-1]
			b.stored++
			return
		}
	}
}

// LocalAddr is the first socket's address.
func (d *Sockets) LocalAddr() string { return d.conns[0].LocalAddr().String() }

// Close closes the sockets and waits for the receivers to exit. A Run in
// progress on another goroutine stops at its next tick with
// net.ErrClosed.
func (d *Sockets) Close() {
	d.mu.Lock()
	if d.err == nil {
		d.err = net.ErrClosed
	}
	d.mu.Unlock()
	for _, bc := range d.conns {
		bc.Close()
	}
	d.readers.Wait()
}

func (d *Sockets) now() time.Duration { return time.Since(d.epoch) }

// receive hands every datagram one socket hears to the client, or to a
// preload's books while no client is attached, until the socket closes.
func (d *Sockets) receive(bc netio.BatchConn) {
	defer d.readers.Done()
	ms := make([]netio.Message, ioBatch)
	for i := range ms {
		ms[i].Buf = make([]byte, 64*1024)
	}
	for {
		n, err := bc.ReadBatch(ms)
		if err != nil {
			return
		}
		now := d.now()
		d.mu.Lock()
		for i := 0; i < n; i++ {
			switch in := ms[i].Buf[:ms[i].N]; {
			case d.client != nil:
				d.client.Receive(now, in)
			case d.pre != nil:
				d.pre.ack(in)
			}
		}
		d.mu.Unlock()
	}
}

// Send queues one datagram, transmitting the queue as a batch when it
// fills. It is the send of the Client that Run drives, which calls it
// with mu held; before Run, a caller may use it (and Flush) for preloads.
func (d *Sockets) Send(datagram []byte) {
	d.txq = append(d.txq, netio.Message{Buf: datagram, N: len(datagram), Src: d.dst})
	if len(d.txq) == ioBatch {
		d.Flush()
	}
}

// Flush transmits what Send queued, on the next socket in rotation. The
// first error sticks and stops all further sending.
func (d *Sockets) Flush() error {
	if len(d.txq) > 0 && d.err == nil {
		if _, err := d.conns[d.next].WriteBatch(d.txq); err != nil {
			d.err = fmt.Errorf("send on socket %d: %w", d.next, err)
		}
		d.next = (d.next + 1) % len(d.conns)
	}
	d.txq = d.txq[:0]
	return d.err
}

// tick sends what is due and not yet sent, and what the retry deadlines
// say must be resent. Each request is stamped as it is queued: the wait
// for mu is not the server's latency.
func (d *Sockets) tick(due uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for n := 0; d.client.Sent() < due && n < maxCatchUp && d.err == nil; n++ {
		if _, err := d.client.Submit(d.now(), nil); err != nil {
			return err
		}
	}
	d.client.Poll(d.now())
	return d.Flush()
}

// Run offers p to the server through c, open loop: the pacer does not
// wait for replies, so the offered rate holds even when the server lags,
// and rep then shows how much of it was answered. rep's measured fields
// are filled in whatever happens; the error is a request that would not
// encode or a send that failed. logf gets a line per phase. Nothing
// touches c once Run has returned.
func (d *Sockets) Run(c *Client, p Profile, rep *Report, logf func(format string, args ...any)) (err error) {
	d.mu.Lock()
	d.client = c
	d.mu.Unlock()
	logf("%s load on %s, %d phase(s) over %v (%d sockets, tx batch %d)",
		rep.Proto, rep.Target, len(p), p.Total(), len(d.conns), ioBatch)
	begin := d.now()
	var end time.Duration
phases:
	for i, seg := range p {
		start := end
		end += seg.Dur
		sent, recv := c.Sent(), c.Counters.Get("recv")
		for t := d.now() - begin; t < end; t = d.now() - begin {
			if err = d.tick(p.Due(t)); err != nil {
				break phases
			}
			time.Sleep(tickEvery)
		}
		sent = c.Sent() - sent
		what := fmt.Sprintf("%s %.0f req/s for %v", seg.Kind, seg.From, seg.Dur)
		if seg.Kind == "ramp" {
			what = fmt.Sprintf("ramp %.0f->%.0f req/s over %v", seg.From, seg.To, seg.Dur)
		}
		logf("phase %d/%d %s: sent %d (achieved %.1f kpps), answered %d in-phase", i+1, len(p), what,
			sent, float64(sent)/(d.now()-begin-start).Seconds()/1000, c.Counters.Get("recv")-recv)
	}
	span := d.now() - begin
	for until := d.now() + linger; err == nil && d.now() < until; time.Sleep(tickEvery) {
		err = d.tick(0)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rep.Measure(c, span)
	d.client = nil // c is the caller's again: the receivers drop what still arrives
	return err
}
