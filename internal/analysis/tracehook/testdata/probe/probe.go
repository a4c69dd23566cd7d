// Package sim is a tracehook fixture for the EngineProbe rule, which holds
// in every package except obs — sim is not a hot package, yet its probe
// calls must be nil-guarded.
package sim

// EngineProbe mirrors obs.EngineProbe for the fixture.
type EngineProbe interface {
	EventBegin()
	EventEnd(class string, kind uint8)
}

// Tracer stands in for trace.Tracer: its calls are checked only in hot
// packages.
type Tracer struct{}

func (t *Tracer) Enabled(cat uint8) bool { return t != nil }
func (t *Tracer) Emit(core int, cat uint8, line uint64, what string) {
}

type engine struct {
	now    uint64
	probe  EngineProbe
	tracer *Tracer
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
	e.tracer.Emit(0, 0, 0, "cold")
}

// enabledGuard: an Enabled check guards a Tracer, never a probe.
func (e *engine) enabledGuard() {
	if e.tracer.Enabled(0) {
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
