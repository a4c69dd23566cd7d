// A deterministic-engine stand-in that reads the wall clock.
package sim

import "time"

type engine struct {
	now uint64
}

func (e *engine) step() {
	t := time.Now() // want `time\.Now outside internal/obs \(package "sim"\)`
	_ = t
	e.now++
}

func (e *engine) wall(since time.Time) time.Duration {
	return time.Since(since) // want `time\.Since outside internal/obs \(package "sim"\)`
}
