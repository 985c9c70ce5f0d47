// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel has two layers. The lower layer is a classic event calendar,
// executed in (time, sequence) order by Run: 64 unsorted radix buckets of
// entries that carry their own (time, sequence) key, for the events due
// later, and a FIFO lane, a Queue, for the events due at the current
// instant. The upper layer provides
// lightweight simulated processes: ordinary Go functions that run on
// iter.Pull coroutines under strict hand-off, so exactly one of them (or the
// Run caller) is ever running. This keeps simulations fully deterministic
// while letting model code be written in a natural blocking style (Sleep,
// Await, Acquire).
//
// Queue is also the one FIFO the rest of the model builds on: link flights,
// router and qdisc backlogs, interrupt work and TCP send buffers.
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. Durations are also expressed as Time.
type Time int64

// Convenient duration units of simulated time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	if t < 0 {
		// Negate in uint64: -t overflows for math.MinInt64.
		return "-" + formatNanos(-uint64(t))
	}
	return formatNanos(uint64(t))
}

// formatNanos formats a magnitude of n nanoseconds with an adaptive unit.
func formatNanos(n uint64) string {
	switch {
	case n < uint64(Microsecond):
		return fmt.Sprintf("%dns", n)
	case n < uint64(Millisecond):
		return fmt.Sprintf("%.3fus", float64(n)/float64(Microsecond))
	case n < uint64(Second):
		return fmt.Sprintf("%.3fms", float64(n)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(n)/float64(Second))
	}
}
