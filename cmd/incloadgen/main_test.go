package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/fleet"
	"incod/internal/kvs"
	"incod/internal/paxos"
	"incod/internal/trafficgen"
)

func TestParseProfile(t *testing.T) {
	const sec = time.Second
	good := []struct {
		spec string
		want []phase
	}{
		// Empty spec: one hold at -rate for -duration.
		{"", []phase{{"hold", 700, 700, 3 * sec}}},
		{"  ", []phase{{"hold", 700, 700, 3 * sec}}},
		{"hold:100:2s", []phase{{"hold", 100, 100, 2 * sec}}},
		{"spike:1500.5:250ms", []phase{{"spike", 1500.5, 1500.5, 250 * time.Millisecond}}},
		{"ramp:0-8000:2s", []phase{{"ramp", 0, 8000, 2 * sec}}},
		{"ramp:0-8000:2s, hold:8000:3s ,ramp:8000-0:2s", []phase{
			{"ramp", 0, 8000, 2 * sec}, {"hold", 8000, 8000, 3 * sec}, {"ramp", 8000, 0, 2 * sec}}},
	}
	for _, c := range good {
		got, err := parseProfile(c.spec, 700, 3*sec)
		if err != nil {
			t.Errorf("parseProfile(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseProfile(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
	bad := []string{
		"hold:100",          // no duration
		"hold:100:2s:extra", // a field too many
		"hold:100:2s,",      // empty trailing phase
		"hold:100:soon",     // unparsable duration
		"hold:100:0s",       // zero duration
		"hold:100:-1s",      // negative duration
		"hold:fast:1s",      // unparsable rate
		"hold:-5:1s",        // negative rate
		"ramp:100:1s",       // ramp without <from>-<to>
		"ramp:a-100:1s",     // unparsable from
		"ramp:100-b:1s",     // unparsable to
		"ramp:100--5:1s",    // negative to
		"burst:100:1s",      // unknown kind
	}
	for _, spec := range bad {
		if got, err := parseProfile(spec, 700, 3*sec); err == nil {
			t.Errorf("parseProfile(%q) = %v, want an error", spec, got)
		}
	}
}

func TestPhaseDueAt(t *testing.T) {
	cases := []struct {
		p     phase
		total uint64 // due at the phase's end
	}{
		{phase{"hold", 2000, 2000, 500 * time.Millisecond}, 1000},
		{phase{"spike", 300, 300, 2 * time.Second}, 600},
		// A ramp integrates to the trapezoid (from+to)/2 × dur.
		{phase{"ramp", 0, 8000, 2 * time.Second}, 8000},
		{phase{"ramp", 8000, 0, 2 * time.Second}, 8000},
		{phase{"ramp", 1000, 3000, time.Second}, 2000},
	}
	for _, c := range cases {
		if got := c.p.dueAt(c.p.dur); got != c.total {
			t.Errorf("%v: due at end = %d, want %d", c.p, got, c.total)
		}
		if got := c.p.dueAt(0); got != 0 {
			t.Errorf("%v: due at 0 = %d, want 0", c.p, got)
		}
		var prev uint64
		for step := 0; step <= 1000; step++ {
			at := c.p.dur * time.Duration(step) / 1000
			got := c.p.dueAt(at)
			if got < prev {
				t.Fatalf("%v: due falls from %d to %d at %v", c.p, prev, got, at)
			}
			prev = got
			if c.p.kind != "ramp" {
				// A hold is linear in t.
				if want := c.p.from * at.Seconds(); math.Abs(float64(got)-want) > 1 {
					t.Fatalf("%v: due at %v = %d, want %.1f", c.p, at, got, want)
				}
			}
		}
	}
	// Halfway up a ramp from zero a quarter of the total is due.
	if got := (phase{"ramp", 0, 8000, 2 * time.Second}).dueAt(time.Second); got != 2000 {
		t.Errorf("ramp 0->8000 over 2s: due at 1s = %d, want 2000", got)
	}
}

// TestRequestRoundTrip sends what request builds through the handler
// each daemon serves with and reads the reply back with responseID: the
// id must survive, and the reply must be the answer the workload is
// meant to draw (a hit, an address, a vote).
func TestRequestRoundTrip(t *testing.T) {
	const keys = 16
	sampler := trafficgen.NewZipfKeys(rand.New(rand.NewSource(1)), keys, 1.06)

	store := kvs.NewShardedStore(2, 0)
	for i := 0; i < keys; i++ {
		store.Set(fmt.Sprintf("key-%d", i), kvs.Entry{Value: []byte("value")})
	}
	zone := dns.NewZone()
	zone.PopulateSequential(keys)
	handlers := map[string]dataplane.Handler{
		"kvs":   kvs.NewHandler(store),
		"dns":   dns.NewHandler(zone),
		"paxos": paxos.NewLiveAcceptor(1, nil, func(string, paxos.Msg) {}),
	}
	answered := map[string]func([]byte) bool{
		"kvs": func(out []byte) bool { return bytes.Contains(out, []byte("VALUE key-")) },
		"dns": func(out []byte) bool {
			m, err := dns.Decode(out, 0)
			return err == nil && m.HasAnswer
		},
		"paxos": func(out []byte) bool {
			m, err := paxos.Decode(out)
			return err == nil && m.Type == paxos.MsgPhase2B && bytes.Equal(m.Value, paxosValue)
		},
	}
	for proto, h := range handlers {
		scratch := make([]byte, 0, 4096)
		for _, id := range []uint16{1, 2, 255, 256, 40000, 65535} {
			req, err := request(proto, id, sampler)
			if err != nil {
				t.Fatalf("%s: request: %v", proto, err)
			}
			if _, ok := responseID(proto, req); ok && proto == "dns" {
				t.Errorf("dns: a query was read as a response")
			}
			out, ok := h.HandleDatagram(req, &scratch)
			if !ok {
				t.Fatalf("%s id %d: handler gave no reply", proto, id)
			}
			got, ok := responseID(proto, out)
			if !ok || got != id {
				t.Errorf("%s: responseID = %d, %v; want %d", proto, got, ok, id)
			}
			if !answered[proto](out) {
				t.Errorf("%s id %d: reply %q is not the workload's answer", proto, id, out)
			}
		}
		if _, ok := responseID(proto, []byte{0xff}); ok {
			t.Errorf("%s: responseID accepted a one-byte datagram", proto)
		}
	}
	if _, err := request("smtp", 1, sampler); err == nil {
		t.Error("request: unknown protocol accepted")
	}
	if _, ok := responseID("smtp", []byte("x")); ok {
		t.Error("responseID: unknown protocol accepted")
	}
}

// TestRunLoopback paces a two-phase profile at an in-process engine on
// loopback: everything the profile says is due gets sent (the pacer
// never over-sends and ends each phase at most one tick short),
// everything sent is answered, and the -report file is the JSON
// fleet.Replay reads.
func TestRunLoopback(t *testing.T) {
	conn, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.New(conn, kvs.NewHandler(kvs.NewShardedStore(2, 0)),
		dataplane.Config{Name: "loadgen-test", Shards: 2, ShardBy: kvs.ShardByKey})
	eng.Start()
	defer eng.Close()

	const profile = "ramp:0-2000:150ms,hold:2000:150ms"
	phases, err := parseProfile(profile, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var due, tick uint64
	for _, p := range phases {
		due += p.dueAt(p.dur)
		// What one pacer period carries at the phase's peak rate, plus
		// one for dueAt's truncation.
		tick += uint64(math.Ceil(math.Max(p.from, p.to)*tickEvery.Seconds())) + 1
	}

	// A tick on a loaded machine can overrun its millisecond, which ends
	// a phase early by that much; the bound is on the best of a few runs
	// so that only a pacer that is wrong, not one that was descheduled,
	// fails.
	var rep *RunReport
	for attempt := 0; attempt < 5; attempt++ {
		rep, err = run("kvs", eng.LocalAddr().String(), 0, 0, 64, true, 2, profile, true)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sent > due {
			t.Fatalf("sent %d, more than the %d due", rep.Sent, due)
		}
		if rep.Answered != rep.Sent || rep.Bad != 0 || rep.Outstanding != 0 {
			t.Fatalf("sent %d, answered %d, bad %d, outstanding %d: want all answered",
				rep.Sent, rep.Answered, rep.Bad, rep.Outstanding)
		}
		if rep.Sent+tick >= due {
			break
		}
	}
	if rep.Sent+tick < due {
		t.Fatalf("sent %d of %d due, short by more than one tick (%d)", rep.Sent, due, tick)
	}
	if rep.Phases != 2 || rep.Proto != "kvs" || rep.AchievedKpps <= 0 || rep.P50Micros <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got fleet.LoadReport
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("report does not parse as fleet.LoadReport: %v", err)
	}
	if got.Sent != rep.Sent || got.Answered != rep.Answered || got.Phases != rep.Phases || got.P99Micros != rep.P99Micros {
		t.Errorf("fleet.LoadReport %+v lost fields of %+v", got, rep)
	}
}
