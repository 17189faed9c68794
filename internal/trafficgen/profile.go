package trafficgen

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Segment is one piece of an offered-load profile: the rate moves
// linearly from From to To requests per second over Dur. Kind is the
// word the segment was written with — "ramp", or "hold" or "spike" for a
// constant rate.
type Segment struct {
	Kind     string
	From, To float64
	Dur      time.Duration
}

// Hold is a constant-rate segment.
func Hold(rate float64, d time.Duration) Segment { return Segment{"hold", rate, rate, d} }

// Profile is an offered-load schedule, segment after segment.
type Profile []Segment

// Total returns the profile's duration.
func (p Profile) Total() time.Duration {
	var d time.Duration
	for _, s := range p {
		d += s.Dur
	}
	return d
}

// Rate returns the offered rate t into the profile (0 after the end).
func (p Profile) Rate(t time.Duration) float64 {
	for _, s := range p {
		if t < s.Dur {
			return s.From + (s.To-s.From)*t.Seconds()/s.Dur.Seconds()
		}
		t -= s.Dur
	}
	return 0
}

// Due integrates the rate curve: how many requests should have been sent
// t into the profile. An open-loop pacer sends what is due and not yet
// sent, which decouples the offered rate from timer resolution.
func (p Profile) Due(t time.Duration) uint64 {
	var due float64
	for _, s := range p {
		if t <= 0 {
			break
		}
		if s.Dur > 0 {
			x := min(t, s.Dur).Seconds()
			due += s.From*x + (s.To-s.From)*x*x/(2*s.Dur.Seconds())
		}
		t -= s.Dur
	}
	return uint64(due)
}

// ParseProfile parses "ramp:<from>-<to>:<dur>", "hold:<rate>:<dur>" and
// "spike:<rate>:<dur>" segments, comma-separated. An empty spec is one
// hold at rate for dur.
func ParseProfile(spec string, rate float64, dur time.Duration) (Profile, error) {
	if strings.TrimSpace(spec) == "" {
		return Profile{Hold(rate, dur)}, nil
	}
	var out Profile
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("profile phase %q: want <kind>:<rate>:<duration>", part)
		}
		s := Segment{Kind: fields[0]}
		from, to := fields[1], fields[1]
		ok := s.Kind == "hold" || s.Kind == "spike"
		if s.Kind == "ramp" {
			from, to, ok = strings.Cut(fields[1], "-")
		}
		var e1, e2, e3 error
		s.From, e1 = strconv.ParseFloat(from, 64)
		s.To, e2 = strconv.ParseFloat(to, 64)
		s.Dur, e3 = time.ParseDuration(fields[2])
		if !ok || errors.Join(e1, e2, e3) != nil || !(s.From >= 0 && s.To >= 0 && s.Dur > 0) {
			return nil, fmt.Errorf("profile phase %q: want ramp:<from>-<to>:<duration>, hold:<rate>:<duration> or spike:<rate>:<duration>, rates not negative and the duration positive", part)
		}
		out = append(out, s)
	}
	return out, nil
}

// String renders the profile in the grammar ParseProfile reads.
func (p Profile) String() string {
	var b strings.Builder
	for i, s := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Kind + ":" + strconv.FormatFloat(s.From, 'f', -1, 64))
		if s.Kind == "ramp" {
			b.WriteString("-" + strconv.FormatFloat(s.To, 'f', -1, 64))
		}
		b.WriteString(":" + s.Dur.String())
	}
	return b.String()
}
