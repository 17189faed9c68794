package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestAtomicCountersBasics(t *testing.T) {
	c := NewAtomicCounters()
	c.Inc("hits", 2)
	c.Inc("misses", 1)
	c.Inc("hits", 3)
	if got := c.Get("hits"); got != 5 {
		t.Fatalf("hits = %d, want 5", got)
	}
	if got := c.Get("absent"); got != 0 {
		t.Fatalf("absent = %d, want 0", got)
	}
	snap := c.Snapshot()
	if snap["hits"] != 5 || snap["misses"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if s := c.String(); s != "hits=5 misses=1" {
		t.Fatalf("String() = %q", s)
	}
}

func TestAtomicCountersConcurrent(t *testing.T) {
	c := NewAtomicCounters()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := c.Handle("shared")
			for i := 0; i < per; i++ {
				h.Add(1)
				c.Inc("also", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get("shared"); got != workers*per {
		t.Fatalf("shared = %d, want %d", got, workers*per)
	}
	if got := c.Get("also"); got != workers*per {
		t.Fatalf("also = %d, want %d", got, workers*per)
	}
}

// Several goroutines add while a reader polls on the wall clock: the
// total comes out exact and no reading is negative — or huge, which is
// how a mark ahead of the total it is subtracted from would show.
func TestAtomicRateMeterTotalAndRate(t *testing.T) {
	m := NewAtomicRateMeter(time.Millisecond, 10)
	start := time.Now()
	const workers, per = 4, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Add(1)
			}
		}()
	}
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			if r := m.Rate(time.Since(start)); r < 0 || r > 1e15 {
				t.Errorf("Rate = %v while adding", r)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-polled
	if got := m.Total(); got != workers*per {
		t.Fatalf("Total = %d, want %d", got, workers*per)
	}
}

func TestAtomicRateMeterWindowExpiry(t *testing.T) {
	m := NewAtomicRateMeter(time.Millisecond, 5)
	m.Add(100)
	if r := m.Rate(time.Millisecond); r != 20000 {
		t.Fatalf("Rate inside the window = %v, want 100 events / 5ms", r)
	}
	// Polled inside the window, the events age out once it has passed.
	for at := 2 * time.Millisecond; at <= 4*time.Millisecond; at += time.Millisecond {
		m.Rate(at)
	}
	if r := m.Rate(5 * time.Millisecond); r != 0 {
		t.Fatalf("Rate after window expiry = %v, want 0", r)
	}
	if got := m.Total(); got != 100 {
		t.Fatalf("Total = %d, want 100", got)
	}
}
