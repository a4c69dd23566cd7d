// Package obs implements the engine probe, so the EngineProbe rule skips
// it: forwarding calls need no guard here.
package obs

// EngineProbe mirrors obs.EngineProbe for the fixture.
type EngineProbe interface {
	EventBegin()
	EventEnd(class string, kind uint8)
}

type tee struct{ a, b EngineProbe }

func (t tee) EventBegin() {
	t.a.EventBegin()
	t.b.EventBegin()
}

func (t tee) EventEnd(class string, kind uint8) {
	t.a.EventEnd(class, kind)
	t.b.EventEnd(class, kind)
}
