package trafficgen

import (
	"math/rand"
	"testing"
	"time"
)

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := NewZipfKeys(rng, 10000, 1.1)
	counts := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		counts[k.NextIndex()]++
	}
	// The hottest key should take a disproportionate share.
	if counts[0] < 100000/100 {
		t.Errorf("hottest key got %d of 100000, want heavy skew", counts[0])
	}
	if k.Next() == "" {
		t.Error("Next() returned empty key")
	}
}

func TestZipfDegenerateParams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k := NewZipfKeys(rng, 0, 0.5) // clamped to n=1, s>1
	for i := 0; i < 10; i++ {
		if k.NextIndex() != 0 {
			t.Fatal("single-key sampler must return key 0")
		}
	}
}

func TestETCShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	etc := NewETC(rng, 1_000_000)
	for i := 0; i < 1000; i++ {
		v := etc.ValueSize()
		if v < 16 || v > 1024 {
			t.Fatalf("value size %d out of [16, 1024]", v)
		}
	}
}

func TestProfileRateAt(t *testing.T) {
	p := Profile{Hold(2, time.Second), Hold(16, 3*time.Second), Hold(2, time.Second)}
	if p.Total() != 5*time.Second {
		t.Errorf("Total = %v", p.Total())
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 2}, {500 * time.Millisecond, 2}, {time.Second, 16},
		{3 * time.Second, 16}, {4500 * time.Millisecond, 2}, {6 * time.Second, 0},
	}
	for _, tc := range cases {
		if got := p.Rate(tc.at); got != tc.want {
			t.Errorf("Rate(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	// A ramp is at its midpoint rate halfway through.
	if got := (Profile{{"ramp", 1000, 3000, 2 * time.Second}}).Rate(time.Second); got != 2000 {
		t.Errorf("ramp 1000->3000: Rate at the middle = %v, want 2000", got)
	}
}

// Due is what the shared pacer sends: rate x duration for a hold — what
// `incloadgen -proto proposer -rate 2000 -duration 3s` must submit — and the
// running integral across segment boundaries.
func TestProfileDue(t *testing.T) {
	if got := (Profile{Hold(2000, 3*time.Second)}).Due(3 * time.Second); got != 6000 {
		t.Errorf("hold 2000 for 3s: Due at the end = %d, want 6000", got)
	}
	p := Profile{{"ramp", 0, 8000, 2 * time.Second}, Hold(8000, 3*time.Second), {"ramp", 8000, 0, 2 * time.Second}}
	for _, c := range []struct {
		at   time.Duration
		want uint64
	}{
		{0, 0}, {time.Second, 2000}, {2 * time.Second, 8000}, {3 * time.Second, 16000},
		{5 * time.Second, 32000}, {6 * time.Second, 38000}, {7 * time.Second, 40000}, {time.Hour, 40000},
	} {
		if got := p.Due(c.at); got != c.want {
			t.Errorf("Due(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

// echo is an app whose requests and replies are the 16-bit wire id and
// nothing else.
type echo struct{}

func (echo) Request(n uint64, _ []byte) ([]byte, uint64, error) {
	id := uint16(n)
	return []byte{byte(id >> 8), byte(id)}, uint64(id), nil
}

func (echo) Reply(in []byte) (uint64, Verdict) {
	if len(in) != 2 {
		return 0, Bad
	}
	return uint64(in[0])<<8 | uint64(in[1]), Answered
}

// The books balance: every request sent is answered or outstanding, also
// when the 16-bit id wraps onto slots whose replies were withheld. And a
// reply is validated before anything is booked.
func TestPendingTableBalances(t *testing.T) {
	var wire [][]byte
	c := NewClient(echo{}, func(d []byte) { wire = append(wire, d) })
	c.Receive(0, []byte("junk"))
	if c.Counters.Get("bad") != 1 || c.Latency.Mean() != 0 {
		t.Fatalf("a bad reply must be counted and nothing else: %v", c.Counters)
	}
	const sends = 70000
	withheld := 0
	for i := 1; i <= sends; i++ {
		now := time.Duration(i) * time.Microsecond
		if _, err := c.Submit(now, nil); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			withheld++
			continue
		}
		c.Receive(now+time.Microsecond, wire[len(wire)-1])
	}
	sent, answered := c.Sent(), c.Counters.Get("recv")
	if sent != sends || answered != sends-uint64(withheld) {
		t.Fatalf("sent %d, answered %d; want %d and %d", sent, answered, sends, sends-withheld)
	}
	if got := uint64(c.Outstanding()); sent != answered+got {
		t.Errorf("sent %d != answered %d + outstanding %d", sent, answered, got)
	}
	// Ids 10, 20, ... 4460 came round again while still waiting.
	if got, want := c.Counters.Get("overwritten"), uint64((sends-65536)/10); got != want {
		t.Errorf("overwritten = %d, want %d", got, want)
	}
	var rep Report
	rep.Measure(c, time.Second)
	if rep.Sent != rep.Answered+uint64(rep.Outstanding) || rep.Bad != 1 {
		t.Errorf("report does not balance: %+v", rep)
	}
}
