// Command incloadgen drives real-UDP load against inckvsd, incdnsd or an
// incpaxosd acceptor — a software stand-in for the paper's OSNT traffic
// generator: open-loop paced load, Zipf key popularity, and client-side
// achieved-rate and latency reporting. It offers a rate; what a daemon
// can sustain is benchmark/'s question (its generator saturates and
// checks every reply).
//
//	incloadgen -proto kvs -target localhost:11211 -rate 50000 -keys 1000 -duration 5s
//	incloadgen -proto dns -target localhost:5353  -rate 20000 -keys 16   -duration 5s
//	incloadgen -proto paxos -target localhost:7000 -rate 20000 -duration 5s
//
// A phased profile exercises shift-up and shift-down in one run — ramp
// across the placement threshold, hold above it, drop back under it —
// with the achieved rate reported per phase:
//
//	incloadgen -proto kvs -target localhost:11211 \
//	    -profile 'ramp:0-100000:5s,hold:100000:5s,spike:150000:1s,ramp:100000-0:5s'
//
// The pacer is open-loop (it does not wait for replies), sending in
// batches every millisecond, so the offered rate holds even when the
// server lags; the report then shows how much of it was answered:
//
//	incloadgen: offered 50000 req/s for 5s
//	incloadgen: sent 250000 (50.0 kpps), answered 249875 (50.0 kpps, 99.9%), bad 0
//	incloadgen: latency p50=212µs p99=1.1ms max=3.2ms
//
// Worker mode for fleet controllers: -report <path> writes the final
// achieved/answered/latency/error numbers as JSON on exit (even when the
// run aborts — the error is recorded in the report), -quiet suppresses
// the per-phase chatter, and the exit code is nonzero whenever socket
// setup or a mid-run send fails, so an orchestrating process never
// mistakes a dead generator for an idle one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"incod/internal/dns"
	"incod/internal/memcache"
	"incod/internal/netio"
	"incod/internal/paxos"
	"incod/internal/telemetry"
	"incod/internal/trafficgen"
)

// RunReport is the machine-readable end-of-run summary behind -report.
// Fleet controllers parse it to verify the offered load arrived and to
// count wrong answers (Bad: replies that failed to decode).
type RunReport struct {
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
	// send failure); the process also exits nonzero.
	Error string `json:"error,omitempty"`
}

const (
	// ioBatch is the datagrams per recvmmsg / sendmmsg call on each
	// client socket — the dataplane's own batch size.
	ioBatch = 32
	// tickEvery is the pacer's period: each tick sends what the profile
	// says is due by now.
	tickEvery = time.Millisecond
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

func writeReport(path string, rep *RunReport) error {
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
	preload bool, sockets int, profile string, quiet bool) (*RunReport, error) {
	rep := &RunReport{Proto: proto, Target: target}

	phases, err := parseProfile(profile, rate, duration)
	if err != nil {
		return rep, err
	}
	rep.Phases = len(phases)
	if sockets < 1 {
		sockets = 1
	}

	// One connected socket per flow: distinct source ports make a
	// reuseport server spread the load across its shard sockets, and
	// every socket gets batched send/recv so the generator can offer
	// more than the server's single-reader mode can absorb.
	conns := make([]net.Conn, sockets)
	bconns := make([]netio.BatchConn, sockets)
	for i := range conns {
		c, err := net.Dial("udp", target)
		if err != nil {
			return rep, fmt.Errorf("dial %s: %w", target, err)
		}
		defer c.Close()
		conns[i] = c
		bconns[i] = netio.NewBatchConn(c.(*net.UDPConn))
	}

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	sampler := trafficgen.NewZipfKeys(rng, keys, 1.06)

	// In-flight requests by wire id. All protocols carry a 16-bit
	// correlation id (paxos: the low bits of the instance), so the id
	// space wraps at high rates: an overwritten slot counts the older
	// request as lost, which slightly overstates loss rather than
	// understating latency.
	var mu sync.Mutex
	sent := make(map[uint16]time.Time)
	hist := telemetry.NewHistogram()
	var recv, errs uint64

	// One batched receiver per socket.
	for _, bc := range bconns {
		go func(bc netio.BatchConn) {
			ms := make([]netio.Message, ioBatch)
			for i := range ms {
				ms[i].Buf = make([]byte, 64*1024)
			}
			for {
				n, err := bc.ReadBatch(ms)
				if err != nil {
					return
				}
				now := time.Now()
				mu.Lock()
				for i := 0; i < n; i++ {
					id, ok := responseID(proto, ms[i].Buf[:ms[i].N])
					if !ok {
						errs++
						continue
					}
					if t0, pending := sent[id]; pending {
						delete(sent, id)
						hist.Observe(now.Sub(t0))
						recv++
					}
				}
				mu.Unlock()
			}
		}(bc)
	}

	if proto == "kvs" && preload {
		for i := uint64(0); i < keys; i++ {
			payload := memcache.EncodeFrame(memcache.Frame{RequestID: 0, Total: 1},
				memcache.EncodeRequest(memcache.Request{
					Op: memcache.OpSet, Key: fmt.Sprintf("key-%d", i), Value: []byte("value")}))
			if _, err := conns[i%uint64(len(conns))].Write(payload); err != nil {
				return rep, fmt.Errorf("preload: %w", err)
			}
			if i%256 == 255 {
				time.Sleep(time.Millisecond) // don't outrun the socket buffer
			}
		}
		time.Sleep(200 * time.Millisecond)
		if !quiet {
			log.Printf("incloadgen: preloaded %d keys", keys)
		}
	}

	var totalDur time.Duration
	for _, ph := range phases {
		totalDur += ph.dur
	}
	if !quiet {
		log.Printf("incloadgen: %s load on %s, %d phase(s) over %v (%d sockets, tx batch %d)",
			proto, target, len(phases), totalDur, sockets, ioBatch)
	}

	// Open-loop pacer: every tick, send however many requests are due by
	// now per the current phase's rate curve, in sendmmsg batches rotated
	// across the client sockets. Batching decouples the offered rate from
	// timer resolution AND from the per-packet syscall cost, so hundreds
	// of thousands of req/s are reachable from one goroutine.
	var id uint16
	var total uint64
	nextConn := 0
	txq := make([]netio.Message, 0, ioBatch)
	flush := func() error {
		if len(txq) == 0 {
			return nil
		}
		if _, err := bconns[nextConn].WriteBatch(txq); err != nil {
			return fmt.Errorf("send on socket %d: %w", nextConn, err)
		}
		nextConn = (nextConn + 1) % len(bconns)
		txq = txq[:0]
		return nil
	}
	finish := func(sendSpan time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		rep.Sent = total
		rep.Answered = recv
		rep.Bad = errs
		rep.Outstanding = len(sent)
		rep.SendSeconds = sendSpan.Seconds()
		if sendSpan > 0 {
			rep.AchievedKpps = float64(total) / sendSpan.Seconds() / 1000
			rep.AnsweredKpps = float64(recv) / sendSpan.Seconds() / 1000
		}
		rep.P50Micros = float64(hist.Median()) / float64(time.Microsecond)
		rep.P99Micros = float64(hist.P99()) / float64(time.Microsecond)
		rep.MaxMicros = float64(hist.Max()) / float64(time.Microsecond)
	}
	const maxBatch = 4096 // bound catch-up bursts after a stall
	start := time.Now()
	for i, ph := range phases {
		phaseStart := time.Now()
		var phaseSent uint64
		mu.Lock()
		recvAtStart := recv
		mu.Unlock()
		for {
			elapsed := time.Since(phaseStart)
			if elapsed >= ph.dur {
				break
			}
			due := ph.dueAt(elapsed)
			batch := uint64(0)
			for phaseSent < due && batch < maxBatch {
				id++
				total++
				phaseSent++
				batch++
				payload, err := request(proto, id, sampler)
				if err != nil {
					finish(time.Since(start))
					return rep, err
				}
				mu.Lock()
				sent[id] = time.Now()
				mu.Unlock()
				txq = append(txq, netio.Message{Buf: payload, N: len(payload)})
				if len(txq) == ioBatch {
					if err := flush(); err != nil {
						finish(time.Since(start))
						return rep, err
					}
				}
			}
			if err := flush(); err != nil {
				finish(time.Since(start))
				return rep, err
			}
			time.Sleep(tickEvery)
		}
		span := time.Since(phaseStart)
		mu.Lock()
		answered := recv - recvAtStart
		mu.Unlock()
		if !quiet {
			log.Printf("incloadgen: phase %d/%d %s: sent %d (achieved %.1f kpps), answered %d in-phase",
				i+1, len(phases), ph, phaseSent, float64(phaseSent)/span.Seconds()/1000, answered)
		}
	}
	sendSpan := time.Since(start)
	time.Sleep(300 * time.Millisecond) // collect stragglers

	finish(sendSpan)
	frac := 0.0
	if rep.Sent > 0 {
		frac = float64(rep.Answered) / float64(rep.Sent) * 100
	}
	log.Printf("incloadgen: sent %d (%.1f kpps), answered %d (%.1f kpps, %.1f%%), outstanding %d, bad %d",
		rep.Sent, rep.AchievedKpps, rep.Answered, rep.AnsweredKpps, frac, rep.Outstanding, rep.Bad)
	log.Printf("incloadgen: latency p50=%v p99=%v max=%v", hist.Median(), hist.P99(), hist.Max())
	return rep, nil
}

// phase is one segment of the offered-load profile.
type phase struct {
	kind     string // "ramp", "hold" or "spike"
	from, to float64
	dur      time.Duration
}

func (p phase) String() string {
	if p.kind == "ramp" {
		return fmt.Sprintf("ramp %.0f->%.0f req/s over %v", p.from, p.to, p.dur)
	}
	return fmt.Sprintf("%s %.0f req/s for %v", p.kind, p.from, p.dur)
}

// dueAt integrates the phase's rate curve: how many requests should have
// been sent t into the phase (linear interpolation for ramps).
func (p phase) dueAt(t time.Duration) uint64 {
	s := t.Seconds()
	if p.kind == "ramp" && p.dur > 0 {
		d := p.dur.Seconds()
		return uint64(p.from*s + (p.to-p.from)*s*s/(2*d))
	}
	return uint64(p.from * s)
}

// parseProfile parses the -profile spec. Empty means a single hold phase
// at the -rate/-duration defaults, preserving the classic behavior.
func parseProfile(spec string, rate float64, dur time.Duration) ([]phase, error) {
	if strings.TrimSpace(spec) == "" {
		return []phase{{kind: "hold", from: rate, to: rate, dur: dur}}, nil
	}
	var out []phase
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("profile phase %q: want <kind>:<rate>:<duration>", part)
		}
		d, err := time.ParseDuration(fields[2])
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("profile phase %q: bad duration %q", part, fields[2])
		}
		p := phase{kind: fields[0], dur: d}
		switch p.kind {
		case "ramp":
			from, to, ok := strings.Cut(fields[1], "-")
			if !ok {
				return nil, fmt.Errorf("profile phase %q: ramp wants <from>-<to>", part)
			}
			if p.from, err = strconv.ParseFloat(from, 64); err != nil {
				return nil, fmt.Errorf("profile phase %q: bad rate %q", part, from)
			}
			if p.to, err = strconv.ParseFloat(to, 64); err != nil {
				return nil, fmt.Errorf("profile phase %q: bad rate %q", part, to)
			}
		case "hold", "spike":
			if p.from, err = strconv.ParseFloat(fields[1], 64); err != nil {
				return nil, fmt.Errorf("profile phase %q: bad rate %q", part, fields[1])
			}
			p.to = p.from
		default:
			return nil, fmt.Errorf("profile phase %q: unknown kind %q (want ramp, hold or spike)", part, p.kind)
		}
		if p.from < 0 || p.to < 0 {
			return nil, fmt.Errorf("profile phase %q: negative rate", part)
		}
		out = append(out, p)
	}
	return out, nil
}

// paxosValue is the fixed command body every generated 2A carries.
var paxosValue = []byte("incloadgen-cmd")

func request(proto string, id uint16, sampler *trafficgen.KeySampler) ([]byte, error) {
	switch proto {
	case "kvs":
		return memcache.EncodeFrame(memcache.Frame{RequestID: id, Total: 1},
			memcache.EncodeRequest(memcache.Request{Op: memcache.OpGet, Key: sampler.Next()})), nil
	case "dns":
		// Mixed-case names exercise the server's case-insensitive fold
		// path; an all-lowercase generator would never hit it and the
		// fold cost would be invisible under load.
		name := mixCase(dns.SequentialName(int(sampler.NextIndex())), uint64(id))
		return dns.Encode(dns.NewQuery(id, name))
	case "paxos":
		// A Phase2A vote request per id: the acceptor replies the 2B to
		// the sender (learner fan-out is separate), and the instance
		// echoes back as the correlation id. Wrapped ids re-vote an
		// accepted instance, which still answers — by the §9.2 rules a
		// re-vote returns the original value, so correlation holds.
		return paxos.Encode(paxos.Msg{
			Type: paxos.MsgPhase2A, Instance: uint64(id), Ballot: 1,
			Value: paxosValue,
		}), nil
	}
	return nil, fmt.Errorf("unknown protocol %q", proto)
}

// mixCase upper-cases a deterministic, id-dependent subset of s's
// letters (an xorshift over the id), so repeated queries for one name
// arrive with varying case like real resolver traffic does.
func mixCase(s string, seed uint64) string {
	x := seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	b := []byte(s)
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if b[i] >= 'a' && b[i] <= 'z' && x&1 != 0 {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

func responseID(proto string, payload []byte) (uint16, bool) {
	switch proto {
	case "kvs":
		frame, _, err := memcache.DecodeFrame(payload)
		if err != nil {
			return 0, false
		}
		return frame.RequestID, true
	case "dns":
		m, err := dns.Decode(payload, 0)
		if err != nil || !m.Response {
			return 0, false
		}
		return m.ID, true
	case "paxos":
		var v paxos.MsgView
		if paxos.DecodeView(payload, &v) != nil {
			return 0, false
		}
		// 2B is the vote, 1B a ballot refusal — both answer the request
		// for latency purposes and both echo the instance back.
		return uint16(v.Instance), true
	}
	return 0, false
}
