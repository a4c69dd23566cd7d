package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stamp"
	"repro/internal/stats"
)

// Set-up builds every machine shape of a workload at least setupReps
// times, and for at least setupMin in all, so that a workload of one small
// shape still takes setup_s as the median of many builds.
const (
	setupReps = 5
	setupMin  = time.Second
)

// maxMeasure ends the measured phase even if it has not collected
// minSamples simulations, so a run on a slow host still finishes in time
// (and then fails for want of a p90).
const maxMeasure = 120 * time.Second

// sweepWorkers is the sweeps' Runner worker count: two, or fewer on a
// smaller host.
func sweepWorkers() int { return min(2, runtime.NumCPU()) }

// run holds one benchmark run's measurements. Every time is read around a
// call to a public function of the simulator: stamp.Programs,
// harness.NewMachineFor, cpu.Machine.Reset, cpu.Machine.Run, or a whole
// Runner pass; per-spec sweep walls come from the Runner's progress events.
type run struct {
	w      workload
	seeds  []uint64         // program seeds
	bySeed [][]harness.Spec // w.specs of each program seed
	specs  []harness.Spec   // every distinct simulation, seed by seed
	check  *checker
	log    io.Writer // failure reports

	attempted, failed int

	setupS       []float64 // per set-up repetition: all shapes built once
	setupBuildMs []float64 // per set-up build

	// The measured phase.
	passS    []float64     // wall per pass
	simMs    []float64     // wall per simulation, Programs through Run
	idle     []float64     // worker idle share per pass
	measured time.Duration // sum of pass walls
	cycles   uint64        // simulated cycles of the correct measured simulations
	alloc    uint64        // heap bytes allocated during the passes
	peakRSS  float64

	// Layer samples, one per iteration: a loop's simulation or a sweep's
	// replayed pass.
	programsMs, buildMs, resetMs, runMs []float64
	runNs                               time.Duration
	runEvents, runAlloc                 uint64
	runCalls                            int

	// The traced pass.
	probe    *classProbe
	tracedNs time.Duration
	tracedN  int
}

func newRun(w workload, seed uint64, log io.Writer) (*run, error) {
	c, err := newChecker(w.name, seed)
	if err != nil {
		return nil, err
	}
	r := &run{w: w, seeds: w.seedsFor(seed), check: c, log: log}
	for _, s := range r.seeds {
		r.bySeed = append(r.bySeed, w.specs(s))
		r.specs = append(r.specs, w.specs(s)...)
	}
	return r, nil
}

// measure sets up, runs the measured phase for at least d, and, when
// traced, adds the replay and probe passes.
func (r *run) measure(d time.Duration, traced bool) error {
	m := r.setup()
	if r.w.sweep != nil {
		r.sweepPhase(d)
	} else {
		r.loopPhase(m, d)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.peakRSS = rss
	if traced {
		if r.w.sweep != nil {
			r.replay()
		}
		r.probePass()
	}
	return nil
}

// record counts one attempted simulation and reports whether it was
// correct; incorrect ones are reported to r.log and counted as failed.
func (r *run) record(s harness.Spec, res *stats.Run, err error) bool {
	r.attempted++
	if err := r.check.check(s, res, err); err != nil {
		r.fail(err)
		return false
	}
	return true
}

func (r *run) fail(err error) {
	r.failed++
	fmt.Fprintf(r.log, "bench: %s: FAILED: %v\n", r.w.name, err)
}

// setup builds one machine of every shape the workload uses, repeatedly,
// from cold. It returns the last machine built, which a loop runs on.
func (r *run) setup() *cpu.Machine {
	seen := map[string]bool{}
	var shapes []harness.Spec
	for _, s := range r.specs {
		if k := shapeKey(s); !seen[k] {
			seen[k] = true
			shapes = append(shapes, s)
		}
	}
	var m *cpu.Machine
	var spent time.Duration
	for i := 0; i < setupReps || spent < setupMin; i++ {
		// Start every repetition from a collected heap, as a fresh process
		// would, so garbage from the one before does not tax it.
		runtime.GC()
		var total time.Duration
		for _, s := range shapes {
			t := obs.StartTimer()
			m = harness.NewMachineFor(s, harness.ExecOptions{})
			d := t.Elapsed()
			total += d
			r.setupBuildMs = append(r.setupBuildMs, ms(d))
		}
		spent += total
		r.setupS = append(r.setupS, total.Seconds())
	}
	return m
}

// more reports whether the measured phase goes on: until it has run for d,
// collected enough simulations for a p90 and given every program seed a
// pass, within maxMeasure.
func (r *run) more(d time.Duration) bool {
	covered := r.w.sweep == nil || len(r.passS) >= len(r.seeds)
	return (r.measured < d || len(r.simMs) < minSamples || !covered) && r.measured < maxMeasure
}

// outcome is one simulation's result, checked after its pass's timers stop.
type outcome struct {
	spec harness.Spec
	res  *stats.Run
	err  error
}

// loopPhase is the single-point closed loop: one client, each simulation
// started when the previous one ends, every pass covering all the run's
// program seeds.
func (r *run) loopPhase(m *cpu.Machine, d time.Duration) {
	for r.more(d) {
		outs := make([]outcome, 0, len(r.specs))
		var busy time.Duration
		before := obs.TakeMemSnapshot()
		pass := obs.StartTimer()
		for _, s := range r.specs {
			t := obs.StartTimer()
			progs := stamp.Programs(s.Workload, s.Threads, s.Seed)
			dp := t.Elapsed()
			t = obs.StartTimer()
			m.Reset(s.Seed, s.System.Name, s.Workload.Name, progs)
			dr := t.Elapsed()
			res, dx, err := r.timedRun(m)
			if err != nil {
				// A failed run leaves the machine unfit for Reset.
				m = harness.NewMachineFor(s, harness.ExecOptions{})
			}
			busy += dp + dr + dx
			r.simMs = append(r.simMs, ms(dp+dr+dx))
			r.programsMs = append(r.programsMs, ms(dp))
			r.resetMs = append(r.resetMs, ms(dr))
			r.runMs = append(r.runMs, ms(dx))
			outs = append(outs, outcome{s, res, err})
		}
		wall := pass.Elapsed()
		r.alloc += before.Delta().TotalAllocBytes
		r.endPass(wall, busy, 1, outs)
	}
}

// progressLog keeps a Runner's progress events; the Runner serializes
// Event calls.
type progressLog struct{ events []obs.ProgressEvent }

func (p *progressLog) Event(e obs.ProgressEvent) { p.events = append(p.events, e) }

// sweepPhase runs whole sweeps, each through a fresh Runner, taking the
// program seeds in turn.
func (r *run) sweepPhase(d time.Duration) {
	workers := sweepWorkers()
	for r.more(d) {
		i := len(r.passS) % len(r.seeds)
		specs := r.bySeed[i]
		h := harness.NewRunner(r.seeds[i])
		h.Workers = workers
		log := &progressLog{}
		h.Progress = log
		before := obs.TakeMemSnapshot()
		t := obs.StartTimer()
		err := r.w.sweep(h, specs)
		wall := t.Elapsed()
		r.alloc += before.Delta().TotalAllocBytes

		var busy time.Duration
		errs := map[string]string{}
		specFailed := false
		for _, e := range log.events {
			busy += e.Wall
			r.simMs = append(r.simMs, ms(e.Wall))
			errs[e.Key] = e.Err
			specFailed = specFailed || e.Err != ""
		}
		if len(log.events) != len(specs) {
			r.fail(fmt.Errorf("the sweep ran %d simulations, want %d", len(log.events), len(specs)))
		}
		outs := make([]outcome, 0, len(specs))
		for _, s := range specs {
			k := s.Key()
			msg, ran := errs[k]
			switch {
			case !ran:
				outs = append(outs, outcome{s, nil, fmt.Errorf("%s: the sweep did not run it", k)})
			case msg != "":
				outs = append(outs, outcome{s, nil, errors.New(msg)})
			default:
				res, err := h.Get(s) // memoized by the sweep
				outs = append(outs, outcome{s, res, err})
			}
		}
		if err != nil && !specFailed {
			r.fail(fmt.Errorf("sweep: %w", err))
		}
		r.endPass(wall, busy, workers, outs)
	}
}

// endPass accounts one measured pass and checks its results.
func (r *run) endPass(wall, busy time.Duration, workers int, outs []outcome) {
	r.measured += wall
	r.passS = append(r.passS, wall.Seconds())
	r.idle = append(r.idle, workerIdleFrac(busy, wall, workers))
	for _, o := range outs {
		if r.record(o.spec, o.res, o.err) {
			r.cycles += o.res.ExecCycles
		}
	}
}

// timedRun runs m, adding its wall, events and allocations to the layer
// totals.
func (r *run) timedRun(m *cpu.Machine) (*stats.Run, time.Duration, error) {
	before := obs.TakeMemSnapshot()
	t := obs.StartTimer()
	res, err := m.Run()
	d := t.Elapsed()
	r.runAlloc += before.Delta().TotalAllocBytes
	r.runNs += d
	r.runCalls++
	if res != nil {
		r.runEvents += res.EventsExecuted
	}
	return res, d, err
}

// replay is a sweep's untraced layer pass: the first seed's pass run
// sequentially in the Runner's order (sorted by key), reusing machines by
// shape the way the Runner's pool does, with a timer around every call.
// Every spec gets its own stamp.Programs call; on the build path
// NewMachineFor generates the programs again inside harness.build_ms. A
// pass that reuses no machine (scale-256) Resets each machine once after
// its run instead, so Reset cost still shows.
func (r *run) replay() {
	ordered := append([]harness.Spec(nil), r.bySeed[0]...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Key() < ordered[j].Key() })
	pool := map[string]*cpu.Machine{}
	var programs, build, reset, runD time.Duration
	resets := 0
	for _, s := range ordered {
		t := obs.StartTimer()
		progs := stamp.Programs(s.Workload, s.Threads, s.Seed)
		programs += t.Elapsed()
		k := shapeKey(s)
		m := pool[k]
		if m == nil {
			t = obs.StartTimer()
			m = harness.NewMachineFor(s, harness.ExecOptions{})
			build += t.Elapsed()
		} else {
			t = obs.StartTimer()
			m.Reset(s.Seed, s.System.Name, s.Workload.Name, progs)
			reset += t.Elapsed()
			resets++
		}
		res, d, err := r.timedRun(m)
		runD += d
		if err == nil {
			pool[k] = m
		} else {
			delete(pool, k)
		}
		r.record(s, res, err)
	}
	if resets == 0 {
		for _, s := range ordered {
			if m := pool[shapeKey(s)]; m != nil {
				progs := stamp.Programs(s.Workload, s.Threads, s.Seed)
				t := obs.StartTimer()
				m.Reset(s.Seed, s.System.Name, s.Workload.Name, progs)
				reset += t.Elapsed()
			}
		}
	}
	r.programsMs = append(r.programsMs, ms(programs))
	r.buildMs = append(r.buildMs, ms(build))
	r.resetMs = append(r.resetMs, ms(reset))
	r.runMs = append(r.runMs, ms(runD))
}

// probePass is the traced pass: a sweep's first-seed pass, or every
// simulation of a loop's pass, each once on a fresh machine built by
// harness.NewMachineFor with the class probe attached (harness.ExecuteWith,
// with the Run timed on its own).
func (r *run) probePass() {
	r.probe = newClassProbe()
	specs := r.specs
	if r.w.sweep != nil {
		specs = r.bySeed[0]
	}
	for _, s := range specs {
		m := harness.NewMachineFor(s, harness.ExecOptions{Probe: r.probe})
		t := obs.StartTimer()
		res, err := m.Run()
		r.tracedNs += t.Elapsed()
		r.tracedN++
		r.record(s, res, err)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
