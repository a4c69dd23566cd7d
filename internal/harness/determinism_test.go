package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/stamp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// goldenCycles pins the exact ExecCycles of a small system x workload x
// thread-count matrix (TypicalCache, seed 1). The simulator guarantees
// bit-for-bit reproducibility — every event executes in (when, seq) order
// and no Go map iteration order leaks into event sequencing — so these
// values must never move unless a change intentionally alters simulated
// timing. If a refactor (scheduler, message pooling, ...) shifts any of
// them, it changed behavior, not just performance.
var goldenCycles = map[goldenKey]uint64{
	{"CGL", "intruder", 2}:             1245702,
	{"CGL", "intruder", 4}:             1518237,
	{"CGL", "kmeans", 2}:               1180932,
	{"CGL", "kmeans", 4}:               990215,
	{"Baseline", "intruder", 2}:        1015025,
	{"Baseline", "intruder", 4}:        965800,
	{"Baseline", "kmeans", 2}:          1009909,
	{"Baseline", "kmeans", 4}:          544132,
	{"LockillerTM-RWI", "intruder", 2}: 1008516,
	{"LockillerTM-RWI", "intruder", 4}: 784785,
	{"LockillerTM-RWI", "kmeans", 2}:   1010008,
	{"LockillerTM-RWI", "kmeans", 4}:   573894,
	{"LockillerTM", "intruder", 2}:     948544,
	{"LockillerTM", "intruder", 4}:     794394,
	{"LockillerTM", "kmeans", 2}:       1007204,
	{"LockillerTM", "kmeans", 4}:       562700,
}

type goldenKey struct {
	System   string
	Workload string
	Threads  int
}

// goldenSpecs returns the 16-point golden matrix as specs.
func goldenSpecs() []Spec {
	var specs []Spec
	for _, sysName := range []string{"CGL", "Baseline", "LockillerTM-RWI", "LockillerTM"} {
		for _, wl := range []stamp.Profile{stamp.Intruder(), stamp.Kmeans()} {
			for _, th := range []int{2, 4} {
				specs = append(specs, Spec{
					System: mustSystem(sysName), Workload: wl,
					Threads: th, Cache: TypicalCache(), Seed: 1,
				})
			}
		}
	}
	return specs
}

// goldenRow is one way of executing a golden-matrix point. Every row must
// reproduce the pinned cycles; a row with deepEqual must also reproduce a
// fresh build's full stats.Run, up to the engine-strategy counters
// (sameOutcome). A new axis — another execution strategy or observer — is
// one more row and one more test driving it through runGolden.
type goldenRow struct {
	deepEqual bool
	run       func(t *testing.T, s Spec) *stats.Run
}

var (
	freshRow = goldenRow{run: func(t *testing.T, s Spec) *stats.Run {
		return mustRun(t)(Execute(s))
	}}
	// The runner's pool path: a Workers=1 runner first runs the same shape
	// on another workload, so s always runs on a Reset machine.
	poolResetRow = goldenRow{deepEqual: true, run: func(t *testing.T, s Spec) *stats.Run {
		return mustRun(t)(warmRunner(t, s).Get(s))
	}}
	// The runner's build path: a new runner's pool is empty, so s runs on
	// a machine the runner constructs itself.
	poolBuildRow = goldenRow{deepEqual: true, run: func(t *testing.T, s Spec) *stats.Run {
		return mustRun(t)(NewRunner(s.Seed).Get(s))
	}}
	unfusedRow = goldenRow{deepEqual: true, run: func(t *testing.T, s Spec) *stats.Run {
		cfg := s.Config()
		cfg.DisableFusion = true
		progs := stamp.Programs(s.Workload, s.Threads, s.Seed)
		return mustRun(t)(cpu.NewMachine(cfg, s.System.Name, s.Workload.Name, progs).Run())
	}}
	// The self-profiler reads the host clock on every dispatch; none of
	// that may reach model state.
	probeRow = goldenRow{run: func(t *testing.T, s Spec) *stats.Run {
		p := obs.NewProfiler()
		run := mustRun(t)(ExecuteWith(s, ExecOptions{Probe: p}))
		if p.Events() != run.EventsExecuted {
			t.Errorf("profiler saw %d events, engine executed %d", p.Events(), run.EventsExecuted)
		}
		return run
	}}
	tracerTelemetryRow = goldenRow{run: func(t *testing.T, s Spec) *stats.Run {
		tel := telemetry.New(telemetry.Config{Interval: 10_000, Chrome: true})
		run := mustRun(t)(ExecuteWith(s, ExecOptions{Tracer: trace.New(256, nil), Telemetry: tel}))
		if tel.Reg.Samples() == 0 {
			t.Error("telemetry took no samples")
		}
		return run
	}}
	// Tracer, telemetry and probe attached to a pool-Reset machine (the pool
	// warmed on another workload, as in poolResetRow) must record exactly
	// what they record on a fresh instrumented build.
	observedResetRow = goldenRow{run: func(t *testing.T, s Spec) *stats.Run {
		m := warmRunner(t, s).pool.acquire(s.poolKey())
		if m == nil {
			t.Fatal("the warm-up machine did not return to the pool")
		}
		m.Reset(s.Seed, s.System.Name, s.Workload.Name, stamp.Programs(s.Workload, s.Threads, s.Seed))
		got := newObservers()
		m.Observe(got.opts())
		run := mustRun(t)(m.Run())
		want := newObservers()
		fresh := mustRun(t)(ExecuteWith(s, want.opts()))
		if got.probe.Events() != run.EventsExecuted || want.probe.Events() != fresh.EventsExecuted {
			t.Errorf("%s: profilers saw %d/%d events, engines executed %d/%d (reset/fresh)", pointName(s),
				got.probe.Events(), want.probe.Events(), run.EventsExecuted, fresh.EventsExecuted)
		}
		if meta := (telemetry.Meta{System: s.System.Name, Threads: s.Threads, Workload: s.Workload.Name}); got.tel.Meta != meta {
			t.Errorf("%s: telemetry labeled %+v, want %+v", pointName(s), got.tel.Meta, meta)
		}
		g, w := got.exports(t), want.exports(t)
		for i, name := range []string{"metrics JSON", "Chrome trace", "text trace"} {
			if !bytes.Equal(g[i], w[i]) {
				t.Errorf("%s: %s differs from the fresh instrumented build (%d vs %d bytes)",
					pointName(s), name, len(g[i]), len(w[i]))
			}
		}
		// The sinks hold the telemetries, whose registered closures
		// reflect.DeepEqual never treats as equal.
		for _, r := range []*stats.Run{run, fresh} {
			for _, c := range r.Cores {
				c.Sink = nil
			}
		}
		if !reflect.DeepEqual(fresh, run) {
			t.Errorf("%s: stats diverge from the fresh instrumented build:\nfresh: %+v\ngot:   %+v",
				pointName(s), fresh, run)
		}
		return run
	}}
)

// warmRunner returns a Workers=1 runner that has run s's shape on another
// workload, so its pool holds a machine of that shape.
func warmRunner(t *testing.T, s Spec) *Runner {
	r := NewRunner(s.Seed)
	r.Workers = 1
	warm := s
	warm.Workload = tinyProfile()
	mustRun(t)(r.Get(warm))
	return r
}

// observers is one full set of run observers: a tracer of every category,
// telemetry with Chrome recording, and a self-profiler.
type observers struct {
	tracer *trace.Tracer
	tel    *telemetry.Telemetry
	probe  *obs.Profiler
}

func newObservers() observers {
	return observers{
		tracer: trace.New(256, nil),
		tel:    telemetry.New(telemetry.Config{Interval: 10_000, Chrome: true}),
		probe:  obs.NewProfiler(),
	}
}

func (o observers) opts() ExecOptions {
	return ExecOptions{Tracer: o.tracer, Telemetry: o.tel, Probe: o.probe}
}

// exports renders what the observers recorded: the metrics JSON, the Chrome
// trace, and the text trace.
func (o observers) exports(t *testing.T) [3][]byte {
	t.Helper()
	var metrics, chrome, text bytes.Buffer
	if err := o.tel.WriteMetricsJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := o.tel.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	o.tracer.Render(&text)
	return [3][]byte{metrics.Bytes(), chrome.Bytes(), text.Bytes()}
}

// mustRun fails the test on a run error and returns the result.
func mustRun(t *testing.T) func(*stats.Run, error) *stats.Run {
	return func(run *stats.Run, err error) *stats.Run {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
}

// sameOutcome reports whether two runs agree on every stats field except
// EventsExecuted and FusedRuns, which count how the engine got there and
// legitimately move with event fusion.
func sameOutcome(a, b *stats.Run) bool {
	x, y := *a, *b
	x.EventsExecuted, x.FusedRuns = 0, 0
	y.EventsExecuted, y.FusedRuns = 0, 0
	return reflect.DeepEqual(x, y)
}

// pointName names a golden-matrix point system/workload/threads.
func pointName(s Spec) string {
	return fmt.Sprintf("%s/%s/%d", s.System.Name, s.Workload.Name, s.Threads)
}

// cellName names a golden-matrix cell system/workload, covering both of its
// thread counts.
func cellName(s Spec) string { return s.System.Name + "/" + s.Workload.Name }

// runGolden runs every golden-matrix point through row and asserts its
// pinned ExecCycles bit-for-bit; deepEqual rows also compare against a
// fresh Execute. Points run in parallel subtests named by name; points that
// share a name run in one subtest.
func runGolden(t *testing.T, row goldenRow, name func(Spec) string) {
	var names []string
	points := make(map[string][]Spec)
	for _, s := range goldenSpecs() {
		n := name(s)
		if points[n] == nil {
			names = append(names, n)
		}
		points[n] = append(points[n], s)
	}
	for _, n := range names {
		specs := points[n]
		t.Run(n, func(t *testing.T) {
			t.Parallel()
			for _, s := range specs {
				run := row.run(t, s)
				if want := goldenCycles[goldenKey{s.System.Name, s.Workload.Name, s.Threads}]; run.ExecCycles != want {
					t.Errorf("%s: ExecCycles = %d, want %d (simulated timing changed)", pointName(s), run.ExecCycles, want)
				}
				if !row.deepEqual {
					continue
				}
				if fresh := mustRun(t)(Execute(s)); !sameOutcome(fresh, run) {
					t.Errorf("%s: stats diverge from the fresh build:\nfresh: %+v\ngot:   %+v", pointName(s), fresh, run)
				}
			}
		})
	}
}

// TestGoldenCycleCounts pins the golden matrix on fresh builds.
func TestGoldenCycleCounts(t *testing.T) { runGolden(t, freshRow, pointName) }

// TestGoldenCycleCountsFusionOff pins the golden matrix with the event-fusion
// fast path disabled. Fusion is a pure execution-strategy change, so the
// unfused run must match the fused one in every outcome — cycles, traffic,
// aborts by cause, per-core commits.
func TestGoldenCycleCountsFusionOff(t *testing.T) { runGolden(t, unfusedRow, pointName) }

// TestGoldenCycleCountsReuse pins the golden matrix on the runner's machine
// pool: reset-then-run (reuse=true) and the runner's own first build
// (reuse=false) must both reproduce a fresh Execute exactly.
func TestGoldenCycleCountsReuse(t *testing.T) {
	t.Run("reuse=true", func(t *testing.T) { runGolden(t, poolResetRow, pointName) })
	t.Run("reuse=false", func(t *testing.T) { runGolden(t, poolBuildRow, pointName) })
}

// TestObsProbePreservesGoldenCycles pins the golden matrix with the
// self-profiler probe attached.
func TestObsProbePreservesGoldenCycles(t *testing.T) { runGolden(t, probeRow, cellName) }

// TestTelemetryPreservesGoldenCycles pins the golden matrix with a tracer and
// full telemetry (metrics sampling, Chrome recording) attached: observing
// must never perturb the simulation.
func TestTelemetryPreservesGoldenCycles(t *testing.T) {
	runGolden(t, tracerTelemetryRow, cellName)
}

// TestObserversOnResetMachine pins the golden matrix with all three
// observers attached to a pool-Reset machine: same cycles, same stats and
// byte-identical exports as a fresh instrumented build.
func TestObserversOnResetMachine(t *testing.T) { runGolden(t, observedResetRow, pointName) }

// TestRepeatedRunsIdentical runs the same spec twice in one process and
// asserts the cycle counts agree: scheduling must not depend on process
// state (map iteration order, allocation addresses, pool contents).
func TestRepeatedRunsIdentical(t *testing.T) {
	spec := Spec{System: mustSystem("LockillerTM"), Workload: stamp.Intruder(),
		Threads: 4, Cache: TypicalCache(), Seed: 1}
	a, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCycles != b.ExecCycles {
		t.Fatalf("runs diverged: %d vs %d cycles", a.ExecCycles, b.ExecCycles)
	}
}
