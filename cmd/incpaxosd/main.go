// Command incpaxosd runs one Paxos role over real UDP, using the same
// wire format and protocol rules as the simulated deployment — including
// the §9.2 hand-off machinery (last-voted piggybacks, fresh leaders
// starting at sequence 1, client retries). The server roles serve through
// the shared sharded dataplane (internal/dataplane), so transient socket
// errors are survived and per-shard stats appear on the control API. A
// full system on one machine:
//
//	incpaxosd -role acceptor -id 0 -addr :7000 -learners localhost:7100 &
//	incpaxosd -role acceptor -id 1 -addr :7001 -learners localhost:7100 &
//	incpaxosd -role acceptor -id 2 -addr :7002 -learners localhost:7100 &
//	incpaxosd -role learner  -addr :7100 -quorum 2 -leader localhost:7200 &
//	incpaxosd -role leader   -addr :7200 -ballot 1 -ctrl :8082 \
//	    -acceptors localhost:7000,localhost:7001,localhost:7002 &
//	incpaxosd -role client   -leader localhost:7200 -rate 1000 -duration 5s
//
// The client role is the load generator of internal/trafficgen — its
// proposer app on its socket driver: it listens on the local address the
// route to -leader selects (an address a learner bound to one interface
// can answer), submits what -rate over -duration makes due, resends
// after -timeout at most ten times, reports achieved and decided rates,
// and exits nonzero when nothing it submitted was decided.
//
// Shifting leadership to a second leader process (higher -ballot) and
// re-pointing clients at it reproduces the Figure 7 hand-off on real
// sockets. Every role serves the same /v1 control API as the other
// daemons when -ctrl is set, metering its own message stream. An
// acceptor started with -nictier additionally attaches the emulated
// P4xos fast path: policy-driven shifts hand the acceptor's vote state
// between the host role and the NIC tier for real.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/power"
)

func main() {
	role := flag.String("role", "", "acceptor | leader | learner | client")
	addr := flag.String("addr", ":0", "UDP listen address")
	shards := flag.Int("shards", 1, "dataplane shard workers (role state is serialized either way; >1 only parallelizes decode)")
	var io daemon.EngineOptions
	io.RegisterFlags(flag.CommandLine)
	id := flag.Int("id", 0, "acceptor id")
	ballot := flag.Int("ballot", 1, "leader ballot (epoch); a replacement leader must use a higher one")
	acceptors := flag.String("acceptors", "", "comma-separated acceptor addresses (leader)")
	learners := flag.String("learners", "", "comma-separated learner addresses (acceptor)")
	leader := flag.String("leader", "", "leader address (learner: gap requests; client: request target)")
	quorum := flag.Int("quorum", 2, "learner quorum size")
	rate := flag.Float64("rate", 100, "client request rate (req/s)")
	duration := flag.Duration("duration", 5*time.Second, "client run duration")
	timeout := flag.Duration("timeout", 100*time.Millisecond, "client retry timeout (the §9.2 knob)")
	crossKpps := flag.Float64("crossover", 150, "software/hardware crossover (kpps)")
	policy := flag.String("policy", "threshold",
		"placement policy: "+strings.Join(core.PolicyNames(), " | "))
	ctrl := flag.String("ctrl", "", "control-plane HTTP address (e.g. :8082); empty disables")
	useTier := flag.Bool("nictier", false,
		"acceptor role: attach the emulated P4xos acceptor fast path; policy shifts hand the acceptor state between host and NIC")
	flag.Parse()
	leaderBallot, err := validBallot(*ballot)
	if err != nil {
		log.Printf("incpaxosd: %v", err)
		os.Exit(2)
	}

	startCtrl := func(tierSvc core.Service, ready func() bool) (*daemon.Orchestrator, *daemon.ManagedService, *daemon.CtrlServer) {
		orch, svc, ctrlSrv, err := daemon.StartControlPlane(daemon.StartOptions{
			Name: "paxos", Policy: *policy, CrossKpps: *crossKpps,
			Curve: power.LibpaxosRole(*role), CtrlAddr: *ctrl, Service: tierSvc,
			Ready: ready,
		})
		if err != nil {
			log.Fatalf("incpaxosd: %v", err)
		}
		if ctrlSrv != nil {
			log.Printf("incpaxosd: control plane on http://%s/v1/services", ctrlSrv.Addr())
		}
		return orch, svc, ctrlSrv
	}

	if *role == "client" {
		if err := validClient(*leader, *rate, *duration, *timeout); err != nil {
			log.Printf("incpaxosd: %v", err)
			os.Exit(2)
		}
		orch, svc, ctrlSrv := startCtrl(nil, nil)
		// The client has no engine to drain; a signal mid-run still
		// stops the control plane and exits cleanly.
		daemon.OnShutdown("incpaxosd", ctrlSrv, orch, func() { os.Exit(0) })
		_, err := clientRole(*leader, *rate, *duration, *timeout, svc)
		daemon.GracefulStop("incpaxosd", ctrlSrv, orch)
		if err != nil {
			log.Fatalf("incpaxosd: client: %v", err)
		}
		return
	}

	if *useTier && *role != "acceptor" {
		log.Printf("incpaxosd: -nictier only offloads the acceptor role (P4xos, §3.2); ignoring for %q", *role)
	}
	io.Addr = *addr
	var r serverRole
	switch *role {
	case "acceptor":
		r = newAcceptor(io, uint16(*id), splitAddrs(*learners), *shards, *useTier)
	case "leader":
		r = newLeader(io, leaderBallot, splitAddrs(*acceptors), *shards)
	case "learner":
		r = newLearner(io, *quorum, *leader, *shards)
	default:
		log.Println("incpaxosd: -role must be acceptor, leader, learner or client")
		flag.Usage()
		os.Exit(2)
	}

	orch, svc, ctrlSrv := startCtrl(r.svc, r.eng.Running)
	defer orch.Close()

	svc.UseCounter(r.eng.Handled)
	if err := orch.AttachDataplane("paxos", r.eng); err != nil {
		log.Fatalf("incpaxosd: %v", err)
	}
	// Graceful exit: stop the role's side machinery (e.g. the learner's
	// gap scanner), then drain the dataplane, unblocking Run below.
	daemon.OnShutdown("incpaxosd", ctrlSrv, orch, func() {
		if r.stop != nil {
			r.stop()
		}
		r.eng.Close()
	})

	r.eng.Run()
	log.Printf("incpaxosd: shut down cleanly")
}

// validBallot checks -ballot. Ballots start at 1 — the leader reads an
// accepted value at ballot 0 as "no vote" — and travel as uint32, so a
// negative or oversized flag must not wrap into one.
func validBallot(v int) (uint32, error) {
	if v < 1 || int64(v) > math.MaxUint32 {
		return 0, fmt.Errorf("-ballot must be between 1 and %d (got %d)", uint32(math.MaxUint32), v)
	}
	return uint32(v), nil
}

// validClient checks the client role's flags: the pacer integrates
// -rate over -duration and the retry queue orders deadlines by -timeout,
// so none of the three may be zero or negative.
func validClient(leader string, rate float64, duration, timeout time.Duration) error {
	switch {
	case leader == "":
		return errors.New("client needs -leader")
	case !(rate > 0):
		return fmt.Errorf("-rate must be positive (got %v)", rate)
	case duration <= 0:
		return fmt.Errorf("-duration must be positive (got %v)", duration)
	case timeout <= 0:
		return fmt.Errorf("-timeout must be positive (got %v)", timeout)
	}
	return nil
}

func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
