// Command incloadgen drives real-UDP load against inckvsd, incdnsd, an
// incpaxosd acceptor or an incpaxosd leader — a software stand-in for the
// paper's OSNT traffic generator. It is flags around internal/trafficgen:
// an app per -proto (Zipf key popularity), the client core and the socket
// driver, whose open-loop pacer offers a rate whether or not the server
// keeps up; what a daemon can sustain is benchmark/'s question (its
// generator saturates and checks every reply).
//
//	incloadgen -proto kvs -target localhost:11211 -rate 50000 -keys 1000 -duration 5s
//	incloadgen -proto dns -target localhost:5353  -rate 20000 -keys 16   -duration 5s
//	incloadgen -proto paxos -target localhost:7000 -rate 20000 -duration 5s
//	incloadgen -proto proposer -target localhost:7200 -rate 1000 -duration 5s
//
// -proto proposer is the client of a Paxos system (incpaxosd's package
// comment runs one): it submits client requests to the leader at
// -target, and the decisions come back from the learner, not the leader.
// So its sockets are not connected: they listen on the local address the
// route to -target selects, which a learner bound to one interface can
// answer, and each request names that address. A request nothing
// decided is resent after 100 ms, the §9.2 client timeout, at most ten
// times.
//
// A phased profile exercises shift-up and shift-down in one run — ramp
// across the placement threshold, hold above it, drop back under it —
// with the achieved rate reported per phase, then what was answered:
//
//	incloadgen -proto kvs -target localhost:11211 \
//	    -profile 'ramp:0-100000:5s,hold:100000:5s,spike:150000:1s,ramp:100000-0:5s'
//	...
//	incloadgen: sent 1150000 (71.9 kpps), answered 1149875 (71.9 kpps, 100.0%), outstanding 125, bad 0
//	incloadgen: latency p50=212µs p99=1.1ms max=3.2ms
//
// -report <path> writes the final trafficgen.Report as JSON on exit, even
// when the run aborts (the error is recorded in the report), and the exit
// code is nonzero whenever socket setup or a mid-run send fails, so a
// script never mistakes a dead generator for an idle one.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"time"

	"incod/internal/trafficgen"
)

func main() {
	proto := flag.String("proto", "kvs", "protocol: kvs | dns | paxos (Phase2A votes against an acceptor) | proposer (client requests to a leader)")
	target := flag.String("target", "localhost:11211", "server address")
	rate := flag.Float64("rate", 1000, "offered requests per second")
	duration := flag.Duration("duration", 5*time.Second, "run duration")
	keys := flag.Uint64("keys", 1000, "key-space size (Zipf popularity; kvs SETs every key before the run)")
	sockets := flag.Int("sockets", 1,
		"client sockets (distinct source ports, so a reuseport server spreads the flows)")
	profile := flag.String("profile", "",
		"phased load, comma-separated: ramp:<from>-<to>:<dur> | hold:<rate>:<dur> | spike:<rate>:<dur>; overrides -rate/-duration")
	reportPath := flag.String("report", "", "write the final run report as JSON to this path on exit")
	flag.Parse()

	rep, _, err := run(*proto, *target, *rate, *duration, *keys, *sockets, *profile)
	if err != nil {
		rep.Error = err.Error()
		log.Printf("incloadgen: %v", err)
	}
	if *reportPath != "" {
		if werr := writeReport(*reportPath, rep); werr != nil {
			log.Printf("incloadgen: write report: %v", werr)
			os.Exit(1)
		}
	}
	if err != nil {
		os.Exit(1)
	}
}

func writeReport(path string, rep *trafficgen.Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// run drives the whole load session and always returns a report with
// whatever was achieved — on error the caller records it and exits
// nonzero instead of silently reporting 0 kpps — and the client, once
// one was built, whose counters hold the run's verdicts and retries.
func run(proto, target string, rate float64, duration time.Duration, keys uint64,
	sockets int, profile string) (*trafficgen.Report, *trafficgen.Client, error) {
	rep := &trafficgen.Report{Proto: proto, Target: target}
	phases, err := trafficgen.ParseProfile(profile, rate, duration)
	if err != nil {
		return rep, nil, err
	}
	rep.Phases = len(phases)
	d, c, err := trafficgen.Open(proto, target, sockets, keys)
	if err != nil {
		return rep, nil, err
	}
	defer d.Close()
	if err := d.Run(c, phases, rep, func(format string, args ...any) {
		log.Printf("incloadgen: "+format, args...)
	}); err != nil {
		return rep, c, err
	}
	frac := 0.0
	if rep.Sent > 0 {
		frac = float64(rep.Answered) / float64(rep.Sent) * 100
	}
	log.Printf("incloadgen: sent %d (%.1f kpps), answered %d (%.1f kpps, %.1f%%), outstanding %d, bad %d, retries %d",
		rep.Sent, rep.AchievedKpps, rep.Answered, rep.AnsweredKpps, frac, rep.Outstanding, rep.Bad, c.Counters.Get("retries"))
	log.Printf("incloadgen: latency p50=%v p99=%v max=%v", c.Latency.Median(), c.Latency.P99(), c.Latency.Max())
	return rep, c, nil
}
