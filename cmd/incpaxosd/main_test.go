package main

import (
	"testing"

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
// modeled_watts and the simulator's node.
func TestRoleCurve(t *testing.T) {
	for role, want := range map[string]power.SoftwareCurve{
		"acceptor": power.LibpaxosAcceptor,
		"learner":  power.LibpaxosAcceptor,
		"leader":   power.LibpaxosLeader,
	} {
		if got := power.LibpaxosRole(role); got != want {
			t.Errorf("LibpaxosRole(%q) = %q, want %q", role, got.Name, want.Name)
		}
		if got := simhost.Libpaxos(role).Curve; got != want {
			t.Errorf("simhost.Libpaxos(%q) runs on %q, the daemon on %q", role, got.Name, want.Name)
		}
	}
	if c := power.LibpaxosRole("acceptor"); c.PeakKpps != 178 {
		t.Errorf("acceptor curve peaks at %v kpps, want the §4.3 acceptor's 178", c.PeakKpps)
	}
}
