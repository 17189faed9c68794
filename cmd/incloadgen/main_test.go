package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"incod/internal/dataplane"
	"incod/internal/kvs"
	"incod/internal/paxos"
	"incod/internal/trafficgen"
)

func seg(kind string, from, to float64, d time.Duration) trafficgen.Segment {
	return trafficgen.Segment{Kind: kind, From: from, To: to, Dur: d}
}

func TestParseProfile(t *testing.T) {
	const sec = time.Second
	good := []struct {
		spec string
		want trafficgen.Profile
	}{
		// Empty spec: one hold at -rate for -duration.
		{"", trafficgen.Profile{seg("hold", 700, 700, 3*sec)}},
		{"  ", trafficgen.Profile{seg("hold", 700, 700, 3*sec)}},
		{"hold:100:2s", trafficgen.Profile{seg("hold", 100, 100, 2*sec)}},
		{"spike:1500.5:250ms", trafficgen.Profile{seg("spike", 1500.5, 1500.5, 250*time.Millisecond)}},
		{"ramp:0-8000:2s", trafficgen.Profile{seg("ramp", 0, 8000, 2*sec)}},
		{"ramp:0-8000:2s, hold:8000:3s ,ramp:8000-0:2s", trafficgen.Profile{
			seg("ramp", 0, 8000, 2*sec), seg("hold", 8000, 8000, 3*sec), seg("ramp", 8000, 0, 2*sec)}},
	}
	for _, c := range good {
		got, err := trafficgen.ParseProfile(c.spec, 700, 3*sec)
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseProfile(%q) = %v, want %v", c.spec, got, c.want)
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
		if got, err := trafficgen.ParseProfile(spec, 700, 3*sec); err == nil {
			t.Errorf("ParseProfile(%q) = %v, want an error", spec, got)
		}
	}
}

func TestPhaseDueAt(t *testing.T) {
	cases := []struct {
		p     trafficgen.Segment
		total uint64 // due at the phase's end
	}{
		{seg("hold", 2000, 2000, 500*time.Millisecond), 1000},
		{seg("spike", 300, 300, 2*time.Second), 600},
		// A ramp integrates to the trapezoid (from+to)/2 × dur.
		{seg("ramp", 0, 8000, 2*time.Second), 8000},
		{seg("ramp", 8000, 0, 2*time.Second), 8000},
		{seg("ramp", 1000, 3000, time.Second), 2000},
	}
	for _, c := range cases {
		dueAt := trafficgen.Profile{c.p}.Due
		if got := dueAt(c.p.Dur); got != c.total {
			t.Errorf("%v: due at end = %d, want %d", c.p, got, c.total)
		}
		if got := dueAt(0); got != 0 {
			t.Errorf("%v: due at 0 = %d, want 0", c.p, got)
		}
		var prev uint64
		for step := 0; step <= 1000; step++ {
			at := c.p.Dur * time.Duration(step) / 1000
			got := dueAt(at)
			if got < prev {
				t.Fatalf("%v: due falls from %d to %d at %v", c.p, prev, got, at)
			}
			prev = got
			if c.p.Kind != "ramp" {
				// A hold is linear in t.
				if want := c.p.From * at.Seconds(); math.Abs(float64(got)-want) > 1 {
					t.Fatalf("%v: due at %v = %d, want %.1f", c.p, at, got, want)
				}
			}
		}
	}
	// Halfway up a ramp from zero a quarter of the total is due.
	if got := (trafficgen.Profile{seg("ramp", 0, 8000, 2*time.Second)}).Due(time.Second); got != 2000 {
		t.Errorf("ramp 0->8000 over 2s: due at 1s = %d, want 2000", got)
	}
}

// TestRunLoopback paces a two-phase profile at an in-process engine on
// loopback: everything the profile says is due gets sent (the pacer
// never over-sends and ends each phase at most one tick short),
// everything sent is answered, and the -report file reads back as the
// report written.
func TestRunLoopback(t *testing.T) {
	conn, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.New(conn, kvs.NewHandler(kvs.NewShardedStore(2, 0)),
		dataplane.Config{Name: "loadgen-test", Shards: 2})
	eng.Start()
	defer eng.Close()

	const profile = "ramp:0-2000:150ms,hold:2000:150ms"
	phases, err := trafficgen.ParseProfile(profile, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	due := phases.Due(phases.Total())
	// What one pacer period (a millisecond) carries at the last phase's
	// rate, plus one for Due's truncation: a phase that ends a tick
	// short is made up in the next, the last one is not.
	last := phases[len(phases)-1]
	tick := uint64(math.Ceil(math.Max(last.From, last.To)*time.Millisecond.Seconds())) + 1

	// A tick on a loaded machine can overrun its millisecond, which ends
	// a phase early by that much; the bound is on the best of a few runs
	// so that only a pacer that is wrong, not one that was descheduled,
	// fails.
	var rep *trafficgen.Report
	for attempt := 0; attempt < 5; attempt++ {
		rep, _, err = run("kvs", eng.LocalAddr().String(), 0, 0, 64, 2, profile)
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
	var got trafficgen.Report
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("report does not parse as a trafficgen.Report: %v", err)
	}
	if got != *rep {
		t.Errorf("report read back as %+v, want %+v", got, rep)
	}
}

// startRole serves the Paxos role build makes on a loopback engine and
// returns its address; the role sends from the engine's socket, as
// incpaxosd's roles do.
func startRole(t *testing.T, build func(paxos.Sender) dataplane.Handler) string {
	t.Helper()
	conn, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var eng *dataplane.Engine
	send := func(to string, m paxos.Msg) {
		if dst, err := net.ResolveUDPAddr("udp", to); err == nil {
			eng.WriteTo(paxos.AppendMsg(nil, m), dst)
		}
	}
	eng = dataplane.New(conn, build(send), dataplane.Config{Name: "paxos-test", Shards: 1})
	eng.Start()
	t.Cleanup(eng.Close)
	return eng.LocalAddr().String()
}

// The five-role system of incpaxosd's package comment on loopback, every
// server role bound to 127.0.0.1, with -proto proposer as its client:
// the proposer must advertise an address the learner can send to (not
// the wildcard), so every request it submits is decided and none is
// retried.
func TestClientOnLoopback(t *testing.T) {
	// Nothing is lost on loopback at this rate: no gap requests.
	learner := startRole(t, func(s paxos.Sender) dataplane.Handler { return paxos.NewLiveLearner(2, "", s) })
	var acceptors []string
	for id := uint16(0); id < 3; id++ {
		acceptors = append(acceptors, startRole(t, func(s paxos.Sender) dataplane.Handler {
			return paxos.NewLiveAcceptor(id, []string{learner}, s)
		}))
	}
	leader := startRole(t, func(s paxos.Sender) dataplane.Handler { return paxos.NewLiveLeader(1, acceptors, s) })

	rep, c, err := run("proposer", leader, 500, 200*time.Millisecond, 0, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	decided := c.Counters.Get("decided")
	if rep.Sent < 50 || decided != rep.Sent || c.Counters.Get("retries") != 0 || rep.Outstanding != 0 {
		t.Errorf("submitted %d, decided %d, outstanding %d: %v", rep.Sent, decided, rep.Outstanding, c.Counters)
	}
}
