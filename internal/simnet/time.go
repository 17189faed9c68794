package simnet

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns the time as fractional seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the virtual time as a duration since simulation start.
func (t Time) String() string { return fmt.Sprint(time.Duration(t)) }
