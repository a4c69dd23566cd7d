// The engine self-profiler: host-side dispatch timing for the
// discrete-event engine. The engine sees only the EngineProbe interface,
// injected from a non-deterministic layer (the harness or a CLI), and every
// callsite is nil-guarded, so the disabled cost is one pointer test per
// event.

package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// EngineProbe observes the simulation engine from the host side. The
// engine runs on one goroutine, so implementations need no locking for the
// per-run path.
//
// EventBegin/EventEnd bracket one event dispatch; class names the handler
// (via sim.ProbeClasser) and kind is the handler's event discriminator.
type EngineProbe interface {
	EventBegin()
	EventEnd(class string, kind uint8)
}

// render prints "n=… mean=…ns max<…ns" — the count, mean, and the upper
// bound of the highest populated power-of-two bucket.
func (h *Histogram) render(w io.Writer) {
	top := 0
	for i, c := range h.buckets {
		if c > 0 {
			top = i
		}
	}
	bound := uint64(0)
	if top > 0 {
		bound = uint64(1) << top
	}
	fmt.Fprintf(w, "n=%d mean=%.1fns max<%dns", h.count, h.mean(), bound)
}

// eventKey identifies one dispatch-time series: the handler class plus its
// event-kind discriminator.
type eventKey struct {
	class string
	kind  uint8
}

// Profiler is the standard EngineProbe: per-event-type dispatch wall-time
// histograms. One Profiler instruments one run; Merge folds runs into a
// sweep-level aggregate (Merge locks, the probe path does not).
// All methods are nil-receiver-safe so a nil *Profiler can be passed
// around freely without wrapping hazards.
type Profiler struct {
	mu sync.Mutex

	events map[eventKey]*Histogram
	t0     time.Time
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{events: make(map[eventKey]*Histogram)}
}

// EventBegin implements EngineProbe.
func (p *Profiler) EventBegin() {
	if p == nil {
		return
	}
	p.t0 = time.Now()
}

// EventEnd implements EngineProbe.
func (p *Profiler) EventEnd(class string, kind uint8) {
	if p == nil {
		return
	}
	ns := uint64(time.Since(p.t0))
	k := eventKey{class: class, kind: kind}
	h := p.events[k]
	if h == nil {
		h = &Histogram{}
		p.events[k] = h
	}
	h.Observe(ns)
}

// Events returns the total number of dispatches observed.
func (p *Profiler) Events() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, h := range p.events {
		n += h.count
	}
	return n
}

// Merge folds another profiler's counters into p. The destination locks,
// so sweep workers may merge their per-run profilers concurrently; src
// must be quiescent (its run finished).
func (p *Profiler) Merge(src *Profiler) {
	if p == nil || src == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, h := range src.events {
		d := p.events[k]
		if d == nil {
			d = &Histogram{}
			p.events[k] = d
		}
		d.merge(h)
	}
}

// Render writes the self-profile report: dispatch wall-time per event
// class/kind (sorted, so the layout is deterministic even though the
// host-time values are not).
func (p *Profiler) Render(w io.Writer) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]eventKey, 0, len(p.events))
	var totalNs, totalN uint64
	for k, h := range p.events {
		keys = append(keys, k)
		totalNs += h.sum
		totalN += h.count
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].class != keys[j].class {
			return keys[i].class < keys[j].class
		}
		return keys[i].kind < keys[j].kind
	})
	fmt.Fprintf(w, "engine self-profile: %d events, %s dispatch wall\n",
		totalN, time.Duration(totalNs).Round(time.Microsecond))
	for _, k := range keys {
		h := p.events[k]
		share := 0.0
		if totalNs > 0 {
			share = 100 * float64(h.sum) / float64(totalNs)
		}
		fmt.Fprintf(w, "  %-12s kind=%-3d %5.1f%%  ", k.class, k.kind, share)
		h.render(w)
		fmt.Fprintln(w)
	}
}
