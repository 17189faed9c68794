package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"incod/internal/daemon"
	"incod/internal/fleet"
	"incod/internal/power"
	"incod/internal/simhost"
)

func TestValidBallot(t *testing.T) {
	for _, tc := range []struct {
		in   int
		want uint32
		ok   bool
	}{
		{0, 0, false},  // the "no vote" ballot
		{-1, 0, false}, // would wrap to 4294967295
		{1, 1, true},
		{1 << 32, 0, false}, // would wrap to 0
	} {
		got, err := validBallot(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("validBallot(%d) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// Each role reads watts from one curve on both substrates — the daemon's
// modeled_watts and the simulator's node — and the acceptor's is the one
// the fleet controller ranks the same daemon by.
func TestRoleCurve(t *testing.T) {
	for role, want := range map[string]power.SoftwareCurve{
		"acceptor": fleet.KindSpecs()["paxos"].Curve,
		"learner":  power.LibpaxosAcceptor,
		"leader":   power.LibpaxosLeader,
		"client":   power.LibpaxosLeader,
	} {
		if got := power.LibpaxosRole(role); got != want {
			t.Errorf("LibpaxosRole(%q) = %q, want %q", role, got.Name, want.Name)
		}
		if got := simhost.Libpaxos(role).Curve; role != "client" && got != want {
			t.Errorf("simhost.Libpaxos(%q) runs on %q, the daemon on %q", role, got.Name, want.Name)
		}
	}
	if c := power.LibpaxosRole("acceptor"); c.PeakKpps != 178 {
		t.Errorf("acceptor curve peaks at %v kpps, want the §4.3 acceptor's 178", c.PeakKpps)
	}
}

func TestValidClient(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		leader            string
		rate              float64
		duration, timeout time.Duration
		names             string // the flag the error must name; "" = valid
	}{
		{"localhost:7200", 100, 5 * time.Second, 100 * ms, ""},
		{"localhost:7200", 0.5, ms, ms, ""},
		{"", 100, time.Second, 100 * ms, "-leader"},
		{"localhost:7200", 0, time.Second, 100 * ms, "-rate"}, // would pace on a gap of +Inf
		{"localhost:7200", -3, time.Second, 100 * ms, "-rate"},
		{"localhost:7200", math.NaN(), time.Second, 100 * ms, "-rate"},
		{"localhost:7200", 100, 0, 100 * ms, "-duration"},
		{"localhost:7200", 100, -time.Second, 100 * ms, "-duration"},
		{"localhost:7200", 100, time.Second, 0, "-timeout"},
		{"localhost:7200", 100, time.Second, -ms, "-timeout"},
	} {
		err := validClient(tc.leader, tc.rate, tc.duration, tc.timeout)
		if (err == nil) != (tc.names == "") || err != nil && !strings.Contains(err.Error(), tc.names) {
			t.Errorf("validClient(%q, %v, %v, %v) = %v; want an error naming %q",
				tc.leader, tc.rate, tc.duration, tc.timeout, err, tc.names)
		}
	}
}

// The five-role system of the package comment on loopback, every server
// role bound to 127.0.0.1: the proposer must advertise an address the
// learner can send to (not the wildcard it used to listen on), so every
// request it submits is decided and none is retried.
func TestClientOnLoopback(t *testing.T) {
	io := daemon.EngineOptions{Addr: "127.0.0.1:0"}
	start := func(r serverRole) string {
		r.eng.Start()
		t.Cleanup(func() {
			if r.stop != nil {
				r.stop()
			}
			r.eng.Close()
		})
		return r.eng.LocalAddr().String()
	}
	learner := start(newLearner(io, 2, "", 1)) // nothing is lost on loopback at this rate: no gap requests
	var acceptors []string
	for id := uint16(0); id < 3; id++ {
		acceptors = append(acceptors, start(newAcceptor(io, id, []string{learner}, 1, false)))
	}
	leader := start(newLeader(io, 1, acceptors, 1))

	c, err := clientRole(leader, 500, 200*time.Millisecond, 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	sent, decided := c.Sent(), c.Counters.Get("decided")
	if sent < 50 || decided != sent || c.Counters.Get("retries") != 0 || c.Outstanding() != 0 {
		t.Errorf("submitted %d, decided %d, outstanding %d: %v", sent, decided, c.Outstanding(), c.Counters)
	}
}
