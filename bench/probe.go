package main

import "repro/internal/obs"

// classProbe is the traced pass's obs.EngineProbe: it sums host ns and
// dispatch counts per handler class ("noc", "l1", "bank", "core",
// "closure"). One probe rides along on each traced machine in turn; the
// engine calls it from one goroutine at a time, so it needs no locking.
type classProbe struct {
	t  obs.Timer
	ns map[string]uint64
	n  map[string]uint64
}

func newClassProbe() *classProbe {
	return &classProbe{ns: map[string]uint64{}, n: map[string]uint64{}}
}

func (p *classProbe) EventBegin() { p.t = obs.StartTimer() }

func (p *classProbe) EventEnd(class string, _ uint8) {
	p.ns[class] += uint64(p.t.Elapsed())
	p.n[class]++
}

// The tile-parallel coordinator hooks never fire: benchmark runs use the
// sequential engine.
func (p *classProbe) Grant(int, uint64)   {}
func (p *classProbe) SpanEnd(int, uint64) {}
func (p *classProbe) StrandExec()         {}
func (p *classProbe) OutboxMerge(int)     {}
