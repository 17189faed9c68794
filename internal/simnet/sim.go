package simnet

import (
	"math/rand"
	"time"
)

// Simulator owns the virtual clock and the event queue. It is not safe for
// concurrent use: the whole simulation runs on one goroutine, which is what
// makes it deterministic.
type Simulator struct {
	now     Time
	queue   eventQueue
	nextSeq uint64
	rng     *rand.Rand
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero. It returns the absolute time at which fn will fire.
func (s *Simulator) Schedule(d time.Duration, fn func()) Time {
	if d < 0 {
		d = 0
	}
	return s.ScheduleAt(s.now.Add(d), fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to the current time.
func (s *Simulator) ScheduleAt(at Time, fn func()) Time {
	if at < s.now {
		at = s.now
	}
	s.nextSeq++
	s.queue.push(&event{at: at, seq: s.nextSeq, fn: fn})
	return at
}

// Every schedules fn to run every period, starting one period from now,
// until the returned cancel function is called. fn observes the virtual
// clock through the simulator.
func (s *Simulator) Every(period time.Duration, fn func()) (cancel func()) {
	if period <= 0 {
		period = time.Nanosecond
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		s.Schedule(period, tick)
	}
	s.Schedule(period, tick)
	return func() { stopped = true }
}

// Run processes events until the queue is empty.
func (s *Simulator) Run() {
	for {
		ev := s.queue.peek()
		if ev == nil {
			return
		}
		s.queue.pop()
		s.now = ev.at
		ev.fn()
	}
}

// RunUntil processes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (s *Simulator) RunUntil(deadline Time) {
	for {
		ev := s.queue.peek()
		if ev == nil || ev.at > deadline {
			break
		}
		s.queue.pop()
		s.now = ev.at
		ev.fn()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }
