// Package sim provides the deterministic virtual-time substrate used by the
// disaggregated data center simulator.
//
// All performance results in this repository are expressed in virtual
// nanoseconds: simulated threads never sleep, they merely account for the
// time their operations would have taken on the modelled hardware. A
// cooperative scheduler interleaves simulated threads in virtual-time order,
// on a single OS thread, so every run is bit-for-bit reproducible regardless
// of the Go runtime's own scheduling or garbage collection (the property the
// paper's wall-clock testbed gets from bare-metal hardware).
package sim

import "fmt"

// Time is a point in (or duration of) virtual time, in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the duration as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the duration as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns the duration as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String renders the duration with a human-friendly unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// FromNs converts a floating-point nanosecond count to a Time, rounding to
// the nearest nanosecond. Cost models compute in float64 and convert once.
func FromNs(ns float64) Time {
	if ns <= 0 {
		return 0
	}
	return Time(ns + 0.5)
}
