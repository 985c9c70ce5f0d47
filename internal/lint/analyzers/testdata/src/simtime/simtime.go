// Fixture for the simtime analyzer: wall-clock access in model code.
package simtime

import "time"

// Constants and types from package time stay legal everywhere.
const tick = 5 * time.Millisecond

func modelStep() time.Duration {
	start := time.Now()      // want `wall-clock access time\.Now`
	time.Sleep(tick)         // want `wall-clock access time\.Sleep`
	return time.Since(start) // want `wall-clock access time\.Since`
}

func deadline() <-chan time.Time {
	return time.After(tick) // want `wall-clock access time\.After`
}

func suppressed() time.Time {
	//lint:allow simtime fixture demonstrates a justified suppression
	return time.Now()
}

func alsoSuppressedInline() time.Time {
	return time.Now() //lint:allow simtime trailing-comment form
}
