package main

import "testing"

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
