// No wall clock anywhere: time.Duration as a type is fine — only the clock
// reads are confined.
package sim

import "time"

type engine struct {
	now  uint64
	wall time.Duration
}

func (e *engine) step(d time.Duration) {
	e.now++
	e.wall += d
}
