// Package sim is a tracehook fixture for the EngineProbe half of the rule,
// which holds in every package except obs.
package sim

// EngineProbe mirrors obs.EngineProbe for the fixture.
type EngineProbe interface {
	EventBegin()
	EventEnd(class string, kind uint8)
}

type engine struct {
	now   uint64
	probe EngineProbe
	ready bool
}

// step is the sanctioned idiom: every probe call behind a nil comparison.
func (e *engine) step() {
	if pr := e.probe; pr != nil {
		pr.EventBegin()
		e.now++
		pr.EventEnd("core", 1)
		return
	}
	e.now++
}

// mark shows a nil comparison inside a compound condition still guards.
func (e *engine) mark(sampled bool) {
	if pr := e.probe; pr != nil && sampled {
		pr.EventBegin()
	}
}

func (e *engine) bare() {
	e.probe.EventBegin() // want `unguarded EngineProbe\.EventBegin call`
	e.now++
	e.probe.EventEnd("core", 1) // want `unguarded EngineProbe\.EventEnd call`
}

// unrelatedGuard: only a nil comparison of the probe guards it.
func (e *engine) unrelatedGuard() {
	if e.ready {
		e.probe.EventBegin() // want `unguarded EngineProbe\.EventBegin call`
	}
}

// guardOutsideLiteral shows the function-boundary rule: the outer nil check
// does not cover calls made when the literal later runs.
func (e *engine) guardOutsideLiteral() func() {
	if e.probe != nil {
		return func() {
			e.probe.EventBegin() // want `unguarded EngineProbe\.EventBegin call`
		}
	}
	return nil
}
