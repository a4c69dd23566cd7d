// The engine self-profiler: host-side dispatch timing for the
// discrete-event engine. The engine sees only the EngineProbe interface,
// injected from a non-deterministic layer (the harness or a CLI), and every
// callsite is nil-guarded, so the disabled cost is one pointer test per
// event.

package obs

import (
	"fmt"
	"io"
	"math/bits"
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

// histBuckets is the power-of-two histogram width: bucket i counts values
// v with bits.Len64(v) == i, so bucket 0 is v==0 and bucket 63 covers the
// full uint64 range.
const histBuckets = 64

// hist is a power-of-two-bucketed histogram.
type hist struct {
	n   uint64
	sum uint64
	b   [histBuckets]uint64
}

func (h *hist) add(v uint64) {
	h.n++
	h.sum += v
	b := bits.Len64(v)
	if b >= histBuckets { // values with the top bit set share the last bucket
		b = histBuckets - 1
	}
	h.b[b]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i := range h.b {
		h.b[i] += o.b[i]
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// render prints "n=… mean=…ns max<…ns" — the count, mean, and the upper
// bound of the highest populated power-of-two bucket.
func (h *hist) render(w io.Writer) {
	top := 0
	for i, c := range h.b {
		if c > 0 {
			top = i
		}
	}
	bound := uint64(0)
	if top > 0 {
		bound = uint64(1) << top
	}
	fmt.Fprintf(w, "n=%d mean=%.1fns max<%dns", h.n, h.mean(), bound)
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

	events map[eventKey]*hist
	t0     time.Time
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{events: make(map[eventKey]*hist)}
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
		h = &hist{}
		p.events[k] = h
	}
	h.add(ns)
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
		n += h.n
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
			d = &hist{}
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
		totalN += h.n
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
