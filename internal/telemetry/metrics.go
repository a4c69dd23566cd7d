package telemetry

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// seriesKind selects how a sampled column derives its per-tick value from
// its callbacks.
type seriesKind uint8

const (
	// kindGauge records the callback's value as-is.
	kindGauge seriesKind = iota
	// kindRate records the delta of a cumulative callback since the last
	// sample.
	kindRate
	// kindRatio records delta(num)/delta(den) over the sampling interval
	// (0 when den did not move).
	kindRatio
	// kindPerCycle records delta/(elapsed*scale): a cumulative quantity
	// normalized to a per-cycle occupancy/utilization fraction.
	kindPerCycle
)

// series is one sampled time-series column.
type series struct {
	name    string
	kind    seriesKind
	fn      func() float64 // value source (cumulative for rate kinds)
	den     func() float64 // denominator source (kindRatio)
	scale   float64        // kindPerCycle normalization divisor
	last    float64
	lastDen float64
	vals    []float64
}

// Registry holds the named instruments and sampled time-series of one run.
// Registration happens when the machine attaches it; the first sample freezes
// the set and fixes the (sorted) column order.
type Registry struct {
	series   []*series
	counters []struct {
		name string
		fn   func() uint64
	}
	hists []struct {
		name string
		h    *obs.Histogram
	}
	names  map[string]bool
	frozen bool

	cycles    []uint64
	lastCycle uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) claim(name string) {
	if r.frozen {
		panic(fmt.Sprintf("telemetry: register %q after first sample", name))
	}
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.names[name] = true
}

// GaugeSeries samples fn's instantaneous value every interval.
func (r *Registry) GaugeSeries(name string, fn func() float64) {
	r.claim(name)
	r.series = append(r.series, &series{name: name, kind: kindGauge, fn: fn})
}

// RateSeries samples the per-interval delta of the cumulative fn.
func (r *Registry) RateSeries(name string, fn func() float64) {
	r.claim(name)
	r.series = append(r.series, &series{name: name, kind: kindRate, fn: fn})
}

// RatioSeries samples delta(num)/delta(den) per interval (0 when den is
// unchanged) — e.g. commits/attempts for a windowed commit rate.
func (r *Registry) RatioSeries(name string, num, den func() float64) {
	r.claim(name)
	r.series = append(r.series, &series{name: name, kind: kindRatio, fn: num, den: den})
}

// PerCycleSeries samples delta(fn)/(elapsed*scale): a cumulative quantity
// normalized into a per-cycle utilization — e.g. flit-hops over link-cycles
// for NoC link occupancy.
func (r *Registry) PerCycleSeries(name string, fn func() float64, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	r.claim(name)
	r.series = append(r.series, &series{name: name, kind: kindPerCycle, fn: fn, scale: scale})
}

// CounterFunc exports fn's cumulative value in the end-of-run totals.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.claim(name)
	r.counters = append(r.counters, struct {
		name string
		fn   func() uint64
	}{name, fn})
}

// NewHistogram registers and returns a named histogram.
func (r *Registry) NewHistogram(name string) *obs.Histogram {
	r.claim(name)
	h := &obs.Histogram{}
	r.hists = append(r.hists, struct {
		name string
		h    *obs.Histogram
	}{name, h})
	return h
}

// freeze fixes the sorted column order before the first sample.
func (r *Registry) freeze() {
	if r.frozen {
		return
	}
	r.frozen = true
	sort.Slice(r.series, func(i, j int) bool { return r.series[i].name < r.series[j].name })
	sort.Slice(r.counters, func(i, j int) bool { return r.counters[i].name < r.counters[j].name })
	sort.Slice(r.hists, func(i, j int) bool { return r.hists[i].name < r.hists[j].name })
}

// Sample appends one point to every series at simulated cycle now.
func (r *Registry) Sample(now uint64) {
	r.freeze()
	elapsed := now - r.lastCycle
	if elapsed == 0 {
		elapsed = 1
	}
	r.cycles = append(r.cycles, now)
	for _, s := range r.series {
		raw := s.fn()
		var v float64
		switch s.kind {
		case kindGauge:
			v = raw
		case kindRate:
			v = raw - s.last
		case kindRatio:
			d := s.den()
			if dd := d - s.lastDen; dd != 0 {
				v = (raw - s.last) / dd
			}
			s.lastDen = d
		case kindPerCycle:
			v = (raw - s.last) / (float64(elapsed) * s.scale)
		}
		s.last = raw
		s.vals = append(s.vals, v)
	}
	r.lastCycle = now
}

// Samples returns the number of points taken.
func (r *Registry) Samples() int { return len(r.cycles) }
