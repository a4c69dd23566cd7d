// Package telemetry is the simulator's deterministic observability layer:
// a zero-alloc metrics registry sampled on the simulated clock into
// time-series, a Chrome-trace-event (Perfetto) exporter for per-core
// execution segments and transaction lifecycles, and conflict provenance
// (per-line conflict heat and the aborter→abortee attribution matrix).
//
// Determinism rules: every timestamp comes from sim.Engine.Now (the package
// passes the nowallclock analyzer), every export renders maps in sorted-key
// order, and recording mutates no simulated state — so a run with telemetry
// attached produces bit-for-bit the same cycle counts as one without, and
// two same-seed runs produce byte-identical telemetry output.
//
// The layer is one observer of the model-event stream (internal/trace): a
// run without telemetry has none attached, and the model's guarded event
// sites cost it one pointer test each.
package telemetry

import (
	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config sizes the telemetry layer.
type Config struct {
	// Interval is the sampling period in simulated cycles (default 10000).
	// Smaller intervals give finer curves at proportionally more memory and
	// sampling work; the per-event hook cost is interval-independent.
	Interval uint64
	// HotLines bounds the per-line conflict-heat export (default 16).
	HotLines int
	// Chrome enables Chrome-trace-event recording (duration spans per core,
	// transaction flow events). Off, segments still feed the cycle-share
	// series but no span is retained.
	Chrome bool
}

// Defaults fills unset knobs.
func (c Config) Defaults() Config {
	if c.Interval == 0 {
		c.Interval = 10_000
	}
	if c.HotLines == 0 {
		c.HotLines = 16
	}
	return c
}

// Meta labels the run in exports.
type Meta struct {
	System   string `json:"system"`
	Threads  int    `json:"threads"`
	Workload string `json:"workload"`
}

// Telemetry is one run's observability state. Create with New; the machine
// starts it and attaches it as an observer before the run.
type Telemetry struct {
	cfg    Config
	engine *sim.Engine
	cores  int

	// Reg is the metrics registry; the machine registers its probes here
	// before the run starts.
	Reg *Registry
	// Meta labels exports; cpu.Machine.Observe stamps it from the machine.
	Meta Meta

	// Built-in transaction instruments, fed by attempt events.
	attempts uint64
	commits  uint64
	aborts   uint64
	abortsBy [htm.NumCauses + 1]uint64
	txDur    *obs.Histogram
	abortDur *obs.Histogram

	// Per-category cycle accumulators, fed by segment events.
	catCycles [stats.NumCategories]uint64

	chrome *chromeTrace
	prov   *provenance
}

// New creates a telemetry instance and registers the built-in series:
// commit_rate and abort_rate (per-interval commit/abort fractions) and one
// cycles_<category>_share series per execution category.
func New(cfg Config) *Telemetry {
	cfg = cfg.Defaults()
	t := &Telemetry{cfg: cfg, Reg: NewRegistry(), prov: newProvenance()}
	if cfg.Chrome {
		t.chrome = newChromeTrace()
	}
	t.txDur = t.Reg.NewHistogram("tx_duration_cycles")
	t.abortDur = t.Reg.NewHistogram("aborted_duration_cycles")
	attempts := func() float64 { return float64(t.attempts) }
	t.Reg.RatioSeries("commit_rate", func() float64 { return float64(t.commits) }, attempts)
	t.Reg.RatioSeries("abort_rate", func() float64 { return float64(t.aborts) }, attempts)
	total := func() float64 {
		var s uint64
		for _, v := range t.catCycles {
			s += v
		}
		return float64(s)
	}
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		c := c
		t.Reg.RatioSeries("cycles_"+c.String()+"_share",
			func() float64 { return float64(t.catCycles[c]) }, total)
	}
	t.Reg.CounterFunc("attempts", func() uint64 { return t.attempts })
	t.Reg.CounterFunc("commits", func() uint64 { return t.commits })
	t.Reg.CounterFunc("aborts", func() uint64 { return t.aborts })
	for c := htm.CauseNone + 1; int(c) <= htm.NumCauses; c++ {
		c := c
		t.Reg.CounterFunc("aborts_"+c.String(), func() uint64 { return t.abortsBy[c] })
	}
	return t
}

// Typed-event kind handled by Telemetry.OnEvent.
const evSampleTick uint8 = 0

// Start attaches the telemetry to a machine's engine and schedules the
// first sampling tick. cores is the machine's core count (it sizes the
// abort-attribution matrix and the Chrome-trace thread list).
func (t *Telemetry) Start(engine *sim.Engine, cores int) {
	if t.engine != nil {
		panic("telemetry: Start called twice (one Telemetry per run)")
	}
	t.engine = engine
	t.cores = cores
	t.prov.size(cores)
	if t.chrome != nil {
		t.chrome.metadata(cores)
	}
	engine.AfterEvent(t.cfg.Interval, t, evSampleTick, 0, nil)
}

// ProbeClass implements sim.ProbeClasser for self-profiler reports.
func (t *Telemetry) ProbeClass() string { return "telemetry" }

// OnEvent implements sim.Handler: take one sample, then reschedule. The
// tick stops rescheduling once it is the only event left — the simulation
// proper has drained, and a self-perpetuating tick would keep Engine.Run
// alive forever. Sampling reads counters and mutates no simulated state, so
// the extra events change no existing event's relative order: cycle counts
// stay bit-for-bit identical with telemetry on.
func (t *Telemetry) OnEvent(uint8, uint64, any) {
	t.Reg.Sample(t.engine.Now())
	if t.engine.Pending() > 0 {
		t.engine.AfterEvent(t.cfg.Interval, t, evSampleTick, 0, nil)
	}
}

// Event implements trace.Observer. The telemetry reads closed segments,
// attempt begins and outcomes, and conflicts; every other kind is the text
// tracer's.
func (t *Telemetry) Event(e trace.Event) {
	switch e.Kind {
	case trace.KindSegment:
		t.catCycles[e.Seg] += e.End - e.Start
		if t.chrome != nil {
			t.chrome.span(e.Core, stats.Category(e.Seg).String(), e.Start, e.End-e.Start)
		}
	case trace.KindXBegin:
		t.attempts++
		if t.chrome != nil {
			t.chrome.txBegin(e.Core, e.Section, e.Attempt, t.engine.Now())
		}
	case trace.KindAttemptCommit:
		t.commits++
		now := t.engine.Now()
		t.txDur.Observe(now - e.Start)
		if t.chrome != nil {
			what := "commit"
			if e.Switched {
				what = "commit-switched"
			}
			t.chrome.txEnd(e.Core, e.Section, e.Attempt, now, what)
		}
	case trace.KindAttemptAbort:
		t.aborts++
		if int(e.Cause) < len(t.abortsBy) {
			t.abortsBy[e.Cause]++
		}
		now := t.engine.Now()
		t.abortDur.Observe(now - e.Start)
		if t.chrome != nil {
			t.chrome.txEnd(e.Core, e.Section, e.Attempt, now, "abort:"+e.Cause.String())
		}
	case trace.KindConflict:
		t.prov.record(e.Peer, e.Core, e.Line, e.Read, e.Write, e.Aborted)
	}
}
