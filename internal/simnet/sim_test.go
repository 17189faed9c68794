package simnet

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if s.Now() != Time(3*time.Millisecond) {
		t.Errorf("Now() = %v, want 3ms", s.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.ScheduleAt(Time(time.Millisecond), func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want FIFO", got)
		}
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	s := New(1)
	s.Schedule(time.Second, func() {
		fired := false
		s.ScheduleAt(0, func() { fired = true })
		s.Schedule(-time.Hour, func() {
			if !fired {
				t.Error("events in the past should run immediately, in order")
			}
		})
	})
	s.Run()
	if s.Now() != Time(time.Second) {
		t.Errorf("Now() = %v, want 1s", s.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	ran := 0
	s.Schedule(time.Second, func() { ran++ })
	s.Schedule(3*time.Second, func() { ran++ })
	s.RunUntil(Time(2 * time.Second))
	if ran != 1 {
		t.Fatalf("ran = %d events, want 1", ran)
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("Now() = %v, want 2s", s.Now())
	}
	s.RunFor(time.Second)
	if ran != 2 {
		t.Errorf("after RunFor, ran = %d, want 2", ran)
	}
}

func TestEveryAndCancel(t *testing.T) {
	s := New(1)
	n := 0
	var cancel func()
	cancel = s.Every(time.Millisecond, func() {
		n++
		if n == 5 {
			cancel()
		}
	})
	s.RunFor(time.Second)
	if n != 5 {
		t.Errorf("periodic fired %d times, want 5 (cancel should stop it)", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var trace []int64
		for i := 0; i < 100; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
			s.Schedule(d, func() { trace = append(trace, int64(s.Now())) })
		}
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", tm.Seconds())
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Errorf("Sub = %v, want 500ms", tm.Sub(Time(time.Second)))
	}
	if tm.String() != "1.5s" {
		t.Errorf("String() = %q, want 1.5s", tm.String())
	}
}

// Property: the event queue always pops events in non-decreasing timestamp
// order regardless of insertion order.
func TestQueueOrderProperty(t *testing.T) {
	f := func(delays []uint32) bool {
		s := New(7)
		var fired []Time
		for _, d := range delays {
			s.Schedule(time.Duration(d%1e6)*time.Microsecond, func() {
				fired = append(fired, s.Now())
			})
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
