// The sanctioned idiom: every probe call behind a nil comparison, no wall
// clock anywhere. time.Duration as a type is fine — only the clock reads
// are confined.
package sim

import "time"

// EngineProbe mirrors obs.EngineProbe for the fixture.
type EngineProbe interface {
	EventBegin()
	EventEnd(class string, kind uint8)
}

type engine struct {
	now   uint64
	probe EngineProbe
	wall  time.Duration
}

func (e *engine) step() {
	if pr := e.probe; pr != nil {
		pr.EventBegin()
		e.now++
		pr.EventEnd("core", 1)
		return
	}
	e.now++
}

// A nil comparison inside a compound condition still guards the call.
func (e *engine) mark(sampled bool) {
	if pr := e.probe; pr != nil && sampled {
		pr.EventBegin()
	}
}
