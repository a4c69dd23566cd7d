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
// Like internal/trace, the layer is opt-in: a nil *Telemetry disables every
// hook, call sites in hot packages guard with a nil check (enforced by the
// tracehook analyzer), and all hook methods are nil-receiver-safe, so the
// disabled path costs one branch and zero allocations.
package telemetry

import (
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
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

// Telemetry is one run's observability state. Create with New, attach with
// Start before the machine runs. A nil *Telemetry is a valid disabled
// instance: every hook returns immediately.
type Telemetry struct {
	cfg    Config
	engine *sim.Engine
	cores  int

	// Reg is the metrics registry; the machine registers its probes here
	// before the run starts.
	Reg *Registry
	// Meta labels exports; cpu.Machine.Observe stamps it from the machine.
	Meta Meta

	// Built-in transaction instruments, fed by the Tx* hooks.
	attempts uint64
	commits  uint64
	aborts   uint64
	abortsBy [htm.NumCauses + 1]uint64
	txDur    *Histogram
	abortDur *Histogram

	// Per-category cycle accumulators, fed by the Segment sink.
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

// Interval returns the configured sampling period.
func (t *Telemetry) Interval() uint64 { return t.cfg.Interval }

// Typed-event kind handled by Telemetry.OnEvent.
const evSampleTick uint8 = 0

// Start attaches the telemetry to a machine's engine and schedules the
// first sampling tick. cores is the machine's core count (it sizes the
// abort-attribution matrix and the Chrome-trace thread list).
func (t *Telemetry) Start(engine *sim.Engine, cores int) {
	if t == nil {
		return
	}
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

// --- hot-path hooks ------------------------------------------------------
//
// Every hook is nil-receiver-safe, and call sites in hot packages must
// still guard with a nil check (tracehook analyzer) so the disabled path
// never pays argument evaluation.

// Segment implements stats.SegmentSink: one closed per-core cycle segment.
func (t *Telemetry) Segment(core int, cat stats.Category, start, end uint64) {
	if t == nil || end <= start {
		return
	}
	t.catCycles[cat] += end - start
	if t.chrome != nil {
		t.chrome.span(core, cat.String(), start, end-start)
	}
}

// TxBegin records the start of a speculative attempt.
func (t *Telemetry) TxBegin(core, section, attempt int) {
	if t == nil {
		return
	}
	t.attempts++
	if t.chrome != nil {
		t.chrome.txBegin(core, section, attempt, t.engine.Now())
	}
}

// TxCommit records a successful attempt (switched marks an HTMLock-mode
// completion after a switchingMode application). start is the attempt's
// begin cycle.
func (t *Telemetry) TxCommit(core, section, attempt int, start uint64, switched bool) {
	if t == nil {
		return
	}
	t.commits++
	now := t.engine.Now()
	t.txDur.Observe(now - start)
	if t.chrome != nil {
		what := "commit"
		if switched {
			what = "commit-switched"
		}
		t.chrome.txEnd(core, section, attempt, now, what)
	}
}

// TxAbort records a rolled-back attempt.
func (t *Telemetry) TxAbort(core, section, attempt int, start uint64, cause htm.AbortCause) {
	if t == nil {
		return
	}
	t.aborts++
	if int(cause) < len(t.abortsBy) {
		t.abortsBy[cause]++
	}
	now := t.engine.Now()
	t.abortDur.Observe(now - start)
	if t.chrome != nil {
		t.chrome.txEnd(core, section, attempt, now, "abort:"+cause.String())
	}
}

// Conflict records one conflict-arbitration outcome: winner kept (or took)
// line and loser was rejected or aborted. read/write give the loser's
// involvement with the line (its set membership for a defeated holder, its
// request flavor for a rejected requester); aborted marks outcomes that
// rolled the loser back — those feed the aborter→abortee matrix, all feed
// the per-line heat.
func (t *Telemetry) Conflict(winner, loser int, line mem.Line, read, write, aborted bool) {
	if t == nil {
		return
	}
	t.prov.record(winner, loser, line, read, write, aborted)
}
