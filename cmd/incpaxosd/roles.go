package main

import (
	"log"
	"net"
	"sync"
	"time"

	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/protocol"
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
// its NIC tier.
type serverRole struct {
	eng  *dataplane.Engine
	stop func()
	tier nictier.Tier
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

// newAcceptor builds the acceptor from the paxos row, its P4xos tier
// attached when -nictier is set.
func newAcceptor(f *daemon.Flags, id uint16, learners []string) serverRole {
	var w datagramWriter
	eng, srv, err := f.Listen("incpaxosd", protocol.Options{ID: id, Learners: learners, Send: sender(&w)})
	if err != nil {
		log.Fatalf("incpaxosd: %v", err)
	}
	w = eng
	log.Printf("incpaxosd: acceptor %d on %s, learners %v", id, eng.LocalAddr(), learners)
	return serverRole{eng: eng, tier: srv.Tier}
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
