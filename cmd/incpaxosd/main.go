// Command incpaxosd runs one Paxos role over real UDP, using the same
// wire format and protocol rules as the simulated deployment — including
// the §9.2 hand-off machinery (last-voted piggybacks, fresh leaders
// starting at sequence 1). Every role serves through the shared sharded
// dataplane (internal/dataplane), so transient socket errors are
// survived and per-shard stats appear on the control API; role state is
// serialized either way, so -shards above 1 only parallelizes decode. A
// full system on one machine, with incloadgen as the client:
//
//	incpaxosd -role acceptor -id 0 -addr :7000 -learners localhost:7100 &
//	incpaxosd -role acceptor -id 1 -addr :7001 -learners localhost:7100 &
//	incpaxosd -role acceptor -id 2 -addr :7002 -learners localhost:7100 &
//	incpaxosd -role learner  -addr :7100 -quorum 2 -leader localhost:7200 &
//	incpaxosd -role leader   -addr :7200 -ballot 1 -ctrl :8082 \
//	    -acceptors localhost:7000,localhost:7001,localhost:7002 &
//	incloadgen -proto proposer -target localhost:7200 -rate 1000 -duration 5s
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
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"incod/internal/daemon"
	"incod/internal/power"
	"incod/internal/protocol"
)

func main() {
	f := daemon.RegisterFlags(flag.CommandLine, protocol.Paxos)
	role := flag.String("role", "", "acceptor | leader | learner")
	id := flag.Int("id", 0, "acceptor id")
	ballot := flag.Int("ballot", 1, "leader ballot (epoch); a replacement leader must use a higher one")
	acceptors := flag.String("acceptors", "", "comma-separated acceptor addresses (leader)")
	learners := flag.String("learners", "", "comma-separated learner addresses (acceptor)")
	leader := flag.String("leader", "", "leader address (learner: gap requests)")
	quorum := flag.Int("quorum", 2, "learner quorum size")
	flag.Parse()
	leaderBallot, err := validBallot(*ballot)
	if err != nil {
		log.Printf("incpaxosd: %v", err)
		os.Exit(2)
	}

	if f.NICTier && *role != "acceptor" {
		log.Printf("incpaxosd: -nictier only offloads the acceptor role (P4xos, §3.2); ignoring for %q", *role)
	}
	var r serverRole
	switch *role {
	case "acceptor":
		r = newAcceptor(f, uint16(*id), splitAddrs(*learners))
	case "leader":
		r = newLeader(f.EngineOptions, leaderBallot, splitAddrs(*acceptors), f.Shards)
	case "learner":
		r = newLearner(f.EngineOptions, *quorum, *leader, f.Shards)
	default:
		log.Println("incpaxosd: -role must be acceptor, leader or learner")
		flag.Usage()
		os.Exit(2)
	}
	// Each role meters its own message stream on its role's curve.
	f.Row.Curve = power.LibpaxosRole(*role)
	d, err := f.Start("incpaxosd", r.eng, r.tier)
	if err != nil {
		log.Fatalf("incpaxosd: %v", err)
	}
	d.Wait(r.stop)
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
