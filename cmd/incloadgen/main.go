// Command incloadgen drives real-UDP load against inckvsd, incdnsd or an
// incpaxosd acceptor — a software stand-in for the paper's OSNT traffic
// generator. It is flags around internal/trafficgen: an app per -proto
// (Zipf key popularity), the client core and the socket driver, whose
// open-loop pacer offers a rate whether or not the server keeps up; what
// a daemon can sustain is benchmark/'s question (its generator saturates
// and checks every reply).
//
//	incloadgen -proto kvs -target localhost:11211 -rate 50000 -keys 1000 -duration 5s
//	incloadgen -proto dns -target localhost:5353  -rate 20000 -keys 16   -duration 5s
//	incloadgen -proto paxos -target localhost:7000 -rate 20000 -duration 5s
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
// Worker mode for fleet controllers: -report <path> writes the final
// trafficgen.Report as JSON on exit (even when the run aborts — the
// error is recorded in the report), -quiet suppresses the per-phase
// chatter, and the exit code is nonzero whenever socket setup or a
// mid-run send fails, so an orchestrating process never mistakes a dead
// generator for an idle one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"incod/internal/dns"
	"incod/internal/trafficgen"
)

func main() {
	proto := flag.String("proto", "kvs", "protocol: kvs | dns | paxos (Phase2A votes against an acceptor)")
	target := flag.String("target", "localhost:11211", "server address")
	rate := flag.Float64("rate", 1000, "offered requests per second")
	duration := flag.Duration("duration", 5*time.Second, "run duration")
	keys := flag.Uint64("keys", 1000, "key-space size (Zipf popularity)")
	preload := flag.Bool("preload", true, "kvs: SET every key before the run")
	sockets := flag.Int("sockets", 1,
		"client sockets (distinct source ports, so a reuseport server spreads the flows)")
	profile := flag.String("profile", "",
		"phased load, comma-separated: ramp:<from>-<to>:<dur> | hold:<rate>:<dur> | spike:<rate>:<dur>; overrides -rate/-duration")
	reportPath := flag.String("report", "", "write the final run report as JSON to this path on exit")
	quiet := flag.Bool("quiet", false, "suppress per-phase progress logs (final summary still printed)")
	flag.Parse()

	rep, err := run(*proto, *target, *rate, *duration, *keys, *preload, *sockets, *profile, *quiet)
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
// nonzero instead of silently reporting 0 kpps.
func run(proto, target string, rate float64, duration time.Duration, keys uint64,
	preload bool, sockets int, profile string, quiet bool) (*trafficgen.Report, error) {
	rep := &trafficgen.Report{Proto: proto, Target: target}
	phases, err := trafficgen.ParseProfile(profile, rate, duration)
	if err != nil {
		return rep, err
	}
	rep.Phases = len(phases)

	sampler := trafficgen.NewZipfKeys(rand.New(rand.NewSource(time.Now().UnixNano())), keys, 1.06)
	var app trafficgen.App
	switch proto {
	case "kvs":
		app = &trafficgen.KVS{Key: sampler.Next}
	case "dns":
		app = &trafficgen.DNS{Name: func() string { return dns.SequentialName(int(sampler.NextIndex())) }}
	case "paxos":
		app = trafficgen.Vote{Value: []byte("incloadgen-cmd")}
	default:
		return rep, fmt.Errorf("unknown protocol %q", proto)
	}
	logf := func(format string, args ...any) {
		if !quiet {
			log.Printf("incloadgen: "+format, args...)
		}
	}

	d, err := trafficgen.Dial(target, max(sockets, 1), true)
	if err != nil {
		return rep, err
	}
	defer d.Close()
	if proto == "kvs" && preload {
		for i := uint64(0); i < keys; i++ {
			d.Send(trafficgen.KVSSet(fmt.Sprintf("key-%d", i), []byte("value")))
			if i%256 == 255 {
				time.Sleep(time.Millisecond) // don't outrun the socket buffer
			}
		}
		if err := d.Flush(); err != nil {
			return rep, fmt.Errorf("preload: %w", err)
		}
		time.Sleep(200 * time.Millisecond)
		logf("preloaded %d keys", keys)
	}

	c := trafficgen.NewClient(app, d.Send)
	if err := d.Run(c, phases, rep, logf); err != nil {
		return rep, err
	}
	frac := 0.0
	if rep.Sent > 0 {
		frac = float64(rep.Answered) / float64(rep.Sent) * 100
	}
	log.Printf("incloadgen: sent %d (%.1f kpps), answered %d (%.1f kpps, %.1f%%), outstanding %d, bad %d",
		rep.Sent, rep.AchievedKpps, rep.Answered, rep.AnsweredKpps, frac, rep.Outstanding, rep.Bad)
	log.Printf("incloadgen: latency p50=%v p99=%v max=%v", c.Latency.Median(), c.Latency.P99(), c.Latency.Max())
	return rep, nil
}
