// A non-deterministic package that reads the wall clock outside obs.
package harness

import "time"

type engine struct {
	now uint64
}

func (e *engine) step() {
	t := time.Now() // want `time\.Now outside internal/obs \(package "harness"\)`
	_ = t
	e.now++
}

func (e *engine) wall(since time.Time) time.Duration {
	return time.Since(since) // want `time\.Since outside internal/obs \(package "harness"\)`
}
