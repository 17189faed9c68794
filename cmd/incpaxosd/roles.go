package main

import (
	"errors"
	"log"
	"net"
	"sync"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/trafficgen"
)

// The protocol logic lives in internal/paxos (LiveAcceptor, LiveLeader,
// LiveLearner — the same roles internal/simhost runs in simulation); this
// file only wires sockets, senders and the dataplane engine around it.

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

// clientRole submits requests at rate for duration through the shared
// socket driver — the proposer app, the §9.2 retry on timeout — and
// reports submitted and decided counts and rates, retries and latency
// percentiles. It fails when a send did, or when requests were submitted
// and none was decided; the client it returns holds the run's counters.
func clientRole(leader string, rate float64, duration, timeout time.Duration, svc *daemon.ManagedService) (*trafficgen.Client, error) {
	d, err := trafficgen.Dial(leader, 1, false)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	c := trafficgen.NewClient(&trafficgen.Proposer{Addr: d.LocalAddr()}, d.Send)
	c.RetryTimeout = timeout
	if svc != nil {
		svc.UseCounter(func() uint64 { return c.Counters.Get("recv") })
	}
	log.Printf("incpaxosd: client on %s -> leader %s, %.0f req/s for %v", d.LocalAddr(), leader, rate, duration)

	rep := trafficgen.Report{Proto: "paxos", Target: leader}
	err = d.Run(c, trafficgen.Profile{trafficgen.Hold(rate, duration)}, &rep, func(string, ...any) {})
	log.Printf("incpaxosd: client done: submitted %d (%.1f kpps), %d decided (%.1f kpps), %d outstanding, %d retries, %d gave up, latency p50=%v p99=%v",
		rep.Sent, rep.AchievedKpps, rep.Answered, rep.AnsweredKpps, rep.Outstanding,
		c.Counters.Get("retries"), c.Counters.Get("gave_up"), c.Latency.Median(), c.Latency.P99())
	if err == nil && rep.Sent > 0 && rep.Answered == 0 {
		err = errors.New("no submitted request was decided")
	}
	return c, err
}
