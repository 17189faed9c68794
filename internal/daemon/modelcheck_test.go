package daemon_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

// A bounded model check of the one control loop: Orchestrator +
// ThresholdPolicy + a scripted service, over every schedule of eight
// ticks (invariants hold after every tick, so every shorter schedule is
// checked as a prefix). A tick's choice is the offered rate — below the
// to-host threshold, inside the hysteresis band, above the to-network
// threshold — times the outcome of a shift, should one be attempted. The
// outcome is drawn lazily: schedules that differ only in outcomes no shift
// consumed are one execution, so the enumeration runs each execution once
// and still covers the whole product space.

const (
	mcTick = 100 * time.Millisecond
	// The shorter window bounds how fast the loop may flap.
	mcToNetworkWindow = 2 * mcTick
	mcToHostWindow    = 3 * mcTick
	mcPinReason       = "manual placement pin"
)

var mcRates = [3]float64{10, 75, 200} // kpps; thresholds are 50 and 100

type outcome int

const (
	shiftOK outcome = iota
	shiftFailsInPlace
	shiftFailsStranded // the service moves AND reports failure
)

var errScripted = errors.New("scripted transition failure")

// pinPlan pins the service to `to` just before tick `at` and releases it
// just before tick `until` (the schedule's length: never).
type pinPlan struct {
	at, until int
	to        core.Placement
}

// mcRun executes one schedule and returns how many outcomes it consumed
// (outcomes past the script default to shiftOK) and the first violated
// invariant.
func mcRun(rates []int, script []outcome, pin *pinPlan) (consumed int, violation error) {
	fail := func(format string, args ...any) {
		if violation == nil {
			violation = fmt.Errorf(format, args...)
		}
	}
	now := time.Unix(0, 0)
	var total uint64
	o := daemon.NewOrchestrator(mcTick)
	o.SetClock(func() time.Time { return now })

	inFlight, rollingBack := 0, false
	svc := &core.FuncService{ServiceName: "mc"}
	svc.OnShift = func(to core.Placement) error {
		inFlight++
		defer func() { inFlight-- }()
		if inFlight > 1 {
			fail("two shifts in flight")
			return nil
		}
		if rollingBack { // the orchestrator restoring a stranded service
			rollingBack = false
			return nil
		}
		// The orchestrator's mutex is released while a shift runs; a tick
		// that lands meanwhile must not start a second one.
		now = now.Add(time.Nanosecond)
		o.Tick(now)
		now = now.Add(-time.Nanosecond)

		next := shiftOK
		if consumed < len(script) {
			next = script[consumed]
		}
		consumed++
		switch next {
		case shiftFailsInPlace:
			return errScripted
		case shiftFailsStranded:
			svc.Where = to
			rollingBack = true
			return errScripted
		}
		return nil
	}
	m, err := o.Register("mc", daemon.ServiceConfig{
		Service: svc,
		Policy: core.NewThresholdPolicy(core.NetworkControllerConfig{
			ToNetworkKpps: 100, ToNetworkWindow: mcToNetworkWindow,
			ToHostKpps: 50, ToHostWindow: mcToHostWindow,
		}),
	})
	if err != nil {
		return 0, err
	}
	m.UseCounter(func() uint64 { return total })
	o.Tick(now) // baseline

	// check holds the loop to its invariants once control is back with us
	// and returns the transition records so far.
	check := func(step string, strandedBefore int) []core.Transition {
		st, _ := o.Status()
		trs := o.Transitions()
		want := core.Host
		if len(trs) > 0 {
			want = trs[len(trs)-1].To
		}
		if got := svc.Placement(); got != want {
			fail("%s: placement %v, last successful transition went to %v (last_error %q)", step, got, want, st.LastError)
		}
		if st.Shifting || inFlight != 0 {
			fail("%s: a shift is still in flight", step)
		}
		if st.ShiftRollbacks < strandedBefore && st.LastError == "" {
			fail("%s: a stranded shift was neither rolled back nor reported", step)
		}
		var lastPolicy time.Duration = -time.Hour
		for _, tr := range trs {
			if tr.Reason == mcPinReason {
				continue
			}
			if gap := tr.At - lastPolicy; gap < mcToNetworkWindow {
				fail("%s: policy transitions %v apart, shorter window is %v", step, gap, mcToNetworkWindow)
			}
			lastPolicy = tr.At
		}
		return trs
	}
	stranded := func() int { // scripted strandings so far
		n := 0
		for _, oc := range script[:min(consumed, len(script))] {
			if oc == shiftFailsStranded {
				n++
			}
		}
		return n
	}

	inBand, seen := true, 0
	for i, r := range rates {
		if pin != nil && i == pin.at {
			_ = o.Pin(pin.to)
			seen = len(check(fmt.Sprintf("pin before tick %d", i), stranded()))
		}
		if pin != nil && i == pin.until {
			_ = o.Unpin()
		}
		inBand = inBand && r == 1
		now = now.Add(mcTick)
		total += uint64(mcRates[r] * 1000 * mcTick.Seconds())
		o.Tick(now)
		trs := check(fmt.Sprintf("tick %d", i), stranded())
		if pinned := pin != nil && i >= pin.at && i < pin.until; pinned {
			for _, tr := range trs[seen:] {
				if tr.Reason != mcPinReason {
					fail("tick %d: the policy moved a pinned service (%s)", i, tr)
				}
			}
		}
		seen = len(trs)
	}
	if st, _ := o.Status(); inBand && pin == nil && st.Shifts != 0 {
		fail("an all-in-band schedule shifted %d times", st.Shifts)
	}
	return consumed, violation
}

// mcExplore runs rates under script, then under every script that differs
// from it in one outcome the run consumed beyond the script.
func mcExplore(t *testing.T, rates []int, script []outcome, pin *pinPlan, runs *int) {
	consumed, violation := mcRun(rates, script, pin)
	*runs++
	if violation != nil {
		t.Fatalf("rates %v outcomes %v pin %+v: %v", rates, script, pin, violation)
	}
	for i := len(script); i < consumed; i++ {
		for _, alt := range []outcome{shiftFailsInPlace, shiftFailsStranded} {
			next := append(append([]outcome(nil), script...), make([]outcome, i-len(script))...) // shiftOK up to i
			mcExplore(t, rates, append(next, alt), pin, runs)
		}
	}
}

// mcSchedules calls fn with every rate schedule of length n.
func mcSchedules(n int, fn func(rates []int)) {
	rates := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			fn(rates)
			return
		}
		for r := range mcRates {
			rates[i] = r
			rec(i + 1)
		}
	}
	rec(0)
}

func TestModelCheckControlLoop(t *testing.T) {
	log.SetOutput(io.Discard) // one line per shift otherwise
	defer log.SetOutput(os.Stderr)
	ticks, pinTicks := 8, 5
	if testing.Short() {
		ticks, pinTicks = 6, 4
	}
	start := time.Now()
	runs := 0
	mcSchedules(ticks, func(rates []int) { mcExplore(t, rates, nil, nil, &runs) })
	// A pin and its release at every pair of positions of a shorter
	// schedule, to either placement.
	mcSchedules(pinTicks, func(rates []int) {
		for at := 0; at < pinTicks; at++ {
			for until := at + 1; until <= pinTicks; until++ {
				for _, to := range []core.Placement{core.Host, core.Network} {
					mcExplore(t, rates, nil, &pinPlan{at: at, until: until, to: to}, &runs)
				}
			}
		}
	})
	t.Logf("%d executions in %v", runs, time.Since(start).Round(time.Millisecond))
}

// The loop is one piece of code on both substrates: a fixed schedule of
// request counts, with a pin and its release in the middle, fed through
// bare Tick(now) calls under a hand-advanced clock and through the
// simulation driver, leaves byte-identical transition records and status.
func TestSameRecordsOnBothSubstrates(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	var counts []uint64 // per 100 ms tick
	for _, seg := range []struct {
		ticks int
		kpps  float64
	}{{5, 10}, {25, 200}, {5, 75}, {25, 10}, {15, 200}} {
		for i := 0; i < seg.ticks; i++ {
			counts = append(counts, uint64(seg.kpps*1000*mcTick.Seconds()))
		}
	}
	const pinAt, unpinAt = 15*mcTick + mcTick/2, 19*mcTick + mcTick/2 // between ticks, under high load
	cfg := func() daemon.ServiceConfig {
		return daemon.ServiceConfig{
			Service: &core.FuncService{ServiceName: "svc"},
			Policy:  core.NewThresholdPolicy(core.DefaultNetworkConfig(80)),
		}
	}
	dump := func(o *daemon.Orchestrator) string {
		st, _ := o.Status()
		out, err := json.Marshal(struct {
			Records []core.Transition
			Status  daemon.ServiceStatus
		}{o.Transitions(), st})
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	// Bare steps: the test owns the clock.
	now := time.Unix(0, 0)
	var total uint64
	bare := daemon.NewOrchestrator(mcTick)
	bare.SetClock(func() time.Time { return now })
	m, err := bare.Register("svc", cfg())
	if err != nil {
		t.Fatal(err)
	}
	m.UseCounter(func() uint64 { return total })
	bare.Tick(now)
	for i, c := range counts {
		tickAt := time.Unix(0, 0).Add(time.Duration(i+1) * mcTick)
		for _, ev := range []struct {
			at time.Duration
			do func() error
		}{
			{pinAt, func() error { return bare.Pin(core.Host) }},
			{unpinAt, func() error { return bare.Unpin() }},
		} {
			if at := time.Unix(0, 0).Add(ev.at); at.After(now) && at.Before(tickAt) {
				now = at
				if err := ev.do(); err != nil {
					t.Fatal(err)
				}
			}
		}
		now = tickAt
		total += c
		bare.Tick(now)
	}

	// The simulation driver: the event loop owns the clock.
	sim := simnet.New(1)
	var simTotal uint64
	i := 0
	sim.Every(mcTick, func() { simTotal += counts[i]; i++ })
	driven, stop := simhost.Orchestrate(sim, mcTick, cfg(), func() uint64 { return simTotal })
	sim.Schedule(pinAt, func() { _ = driven.Pin(core.Host) })
	sim.Schedule(unpinAt, func() { _ = driven.Unpin() })
	sim.RunFor(time.Duration(len(counts)) * mcTick)
	stop()

	got, want := dump(driven), dump(bare)
	if got != want {
		t.Fatalf("substrates disagree:\n sim:  %s\n bare: %s", got, want)
	}
	if n := len(bare.Transitions()); n < 5 {
		t.Fatalf("the schedule should shift up, down by pin, up again, down and up by policy; got %d records: %s", n, want)
	}
}
