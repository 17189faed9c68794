package main

import (
	"encoding/binary"
	"log"
	"net"
	"sync"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// The protocol logic lives in internal/paxos (LiveAcceptor, LiveLeader,
// LiveLearner — the same roles internal/simhost runs in simulation); this
// file only wires sockets, senders and the dataplane engine around it.

func listen(addr string) net.PacketConn {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		log.Fatalf("incpaxosd: %v", err)
	}
	return conn
}

// datagramWriter is the outbound side a role needs: net.PacketConn and
// *dataplane.Engine (whose WriteTo transmits from the serving socket,
// shard 0's in batched mode) both satisfy it.
type datagramWriter interface {
	WriteTo(b []byte, to net.Addr) (int, error)
}

// sender returns a paxos.Sender transmitting through w, caching address
// resolution per destination and encoding into pooled buffers (UDP
// writes copy into the kernel synchronously, so a buffer is free again
// when WriteTo returns — fan-out stops allocating per message without
// serializing concurrent shard workers' sends). w is read through the
// pointer on every send, so a role can hand out its sender before the
// serving engine exists (the engine needs the handler, the handler
// needs the sender).
func sender(w *datagramWriter) paxos.Sender {
	var mu sync.Mutex
	cache := map[string]*net.UDPAddr{}
	bufs := sync.Pool{New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	}}
	return func(to string, m paxos.Msg) {
		mu.Lock()
		dst := cache[to]
		mu.Unlock()
		if dst == nil {
			var err error
			if dst, err = net.ResolveUDPAddr("udp", to); err != nil {
				log.Printf("incpaxosd: resolve %s: %v", to, err)
				return
			}
			mu.Lock()
			cache[to] = dst
			mu.Unlock()
		}
		if *w == nil {
			log.Printf("incpaxosd: send to %s before the engine is up; dropped", to)
			return
		}
		bp := bufs.Get().(*[]byte)
		*bp = paxos.AppendMsg((*bp)[:0], m)
		_, err := (*w).WriteTo(*bp, dst)
		bufs.Put(bp)
		if err != nil {
			log.Printf("incpaxosd: send to %s: %v", to, err)
		}
	}
}

// serverRole is a built server role: its engine, any extra teardown to
// run before the engine drains, and — when the role supports offload —
// the placement-bearing service for the orchestrator.
type serverRole struct {
	eng  *dataplane.Engine
	stop func()
	svc  core.Service
}

// buildEngine opens the role's serving engine per the shared I/O flags
// and publishes it as the role's outbound writer.
func buildEngine(io daemon.EngineOptions, w *datagramWriter, h dataplane.Handler, shards int) *dataplane.Engine {
	eng, err := daemon.ListenEngine(io, h, dataplane.Config{Name: "incpaxosd", Shards: shards})
	if err != nil {
		log.Fatalf("incpaxosd: %v", err)
	}
	*w = eng
	return eng
}

func newAcceptor(io daemon.EngineOptions, id uint16, learners []string, shards int, useTier bool) serverRole {
	var w datagramWriter
	h := paxos.NewLiveAcceptor(id, learners, sender(&w))
	eng := buildEngine(io, &w, h, shards)
	r := serverRole{eng: eng}
	mode := "advisory"
	if useTier {
		r.svc = nictier.NewService("paxos", eng, nictier.NewPaxosAcceptor(h))
		mode = "nictier"
	}
	log.Printf("incpaxosd: acceptor %d on %s (%s), learners %v", id, eng.LocalAddr(), mode, learners)
	return r
}

func newLeader(io daemon.EngineOptions, ballot uint32, acceptors []string, shards int) serverRole {
	var w datagramWriter
	h := paxos.NewLiveLeader(ballot, acceptors, sender(&w))
	eng := buildEngine(io, &w, h, shards)
	log.Printf("incpaxosd: leader on %s, ballot %d, acceptors %v (starting at sequence 1 per §9.2)",
		eng.LocalAddr(), ballot, acceptors)
	return serverRole{eng: eng}
}

func newLearner(io daemon.EngineOptions, quorum int, leader string, shards int) serverRole {
	var w datagramWriter
	h := paxos.NewLiveLearner(quorum, leader, sender(&w))
	eng := buildEngine(io, &w, h, shards)
	h.Start(100 * time.Millisecond)
	log.Printf("incpaxosd: learner on %s, quorum %d", eng.LocalAddr(), quorum)
	return serverRole{eng: eng, stop: h.Stop}
}

// runClient submits requests at rate for duration, retrying per §9.2 on
// timeout, and reports decided count, retries and latency percentiles.
// Decisions arrive through a single-shard engine so transient socket
// errors can't kill the receive path.
func runClient(leader string, rate float64, duration, timeout time.Duration, svc *daemon.ManagedService) {
	if leader == "" {
		log.Fatal("incpaxosd: client needs -leader")
	}
	conn := listen(":0")
	var w datagramWriter = conn
	send := sender(&w)
	self := conn.LocalAddr().String()
	log.Printf("incpaxosd: client on %s -> leader %s, %.0f req/s for %v", self, leader, rate, duration)

	var mu sync.Mutex
	pending := make(map[uint64]time.Time)
	var decidedCount, retries uint64
	hist := telemetry.NewHistogram()

	eng := dataplane.New(conn, dataplane.HandlerFunc(func(in []byte, _ *[]byte) ([]byte, bool) {
		m, err := paxos.Decode(in)
		if err != nil || m.Type != paxos.MsgDecision {
			return nil, false
		}
		mu.Lock()
		if sent, ok := pending[m.Seq]; ok {
			delete(pending, m.Seq)
			decidedCount++
			hist.Observe(time.Since(sent))
		}
		mu.Unlock()
		return nil, false
	}), dataplane.Config{Name: "incpaxosd", Shards: 1})
	eng.Start()
	defer eng.Close()
	if svc != nil {
		svc.UseCounter(eng.Handled)
	}

	request := func(s uint64) paxos.Msg {
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, s)
		return paxos.Msg{Type: paxos.MsgClientRequest, Seq: s,
			ClientAddr: simnet.Addr(self), Value: v}
	}
	var seq uint64
	submit := func() {
		mu.Lock()
		seq++
		s := seq
		pending[s] = time.Now()
		mu.Unlock()
		send(leader, request(s))
		go func(s uint64) {
			tick := time.NewTicker(timeout)
			defer tick.Stop()
			for range tick.C {
				mu.Lock()
				_, still := pending[s]
				if still {
					retries++
				}
				mu.Unlock()
				if !still {
					return
				}
				send(leader, request(s))
			}
		}(s)
	}

	gap := time.Duration(float64(time.Second) / rate)
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		submit()
		time.Sleep(gap)
	}
	time.Sleep(500 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	log.Printf("incpaxosd: client done: %d decided, %d outstanding, %d retries, latency p50=%v p99=%v",
		decidedCount, len(pending), retries, hist.Median(), hist.P99())
}
