package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/stamp"
)

// TestReuseDifferentialRandom drives randomized specs through a runner's
// machine pool and a fresh build and requires deep equality of the full
// stats — the randomized half of the bit-identity contract whose golden half
// is TestGoldenCycleCountsReuse; the nightly determinism job runs
// both under -race. Each round runs two workloads of one shape back to back
// on one pool (Workers=1), so the second result always comes from a reset
// machine. Outside -short, three more rounds reset 128-core scaling machines
// (mesh, cmesh and torus, two-level directory), which reach the core sets'
// extension words and the cluster collectors.
func TestReuseDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	systems := Systems()
	workloads := stamp.Workloads()
	caches := []CacheConfig{TypicalCache(), SmallCache()}
	for round := 0; round < 4; round++ {
		shape := Spec{
			System:  systems[rng.Intn(len(systems))],
			Threads: []int{2, 4}[rng.Intn(2)],
			Cache:   caches[rng.Intn(len(caches))],
		}
		wlA := workloads[rng.Intn(len(workloads))]
		wlB := workloads[rng.Intn(len(workloads))]
		seed := uint64(rng.Intn(1000) + 1)
		t.Run(fmt.Sprintf("%s|%d|%s|%s->%s", shape.System.Name, shape.Threads,
			shape.Cache.Name, wlA.Name, wlB.Name), func(t *testing.T) {
			checkReuse(t, shape, wlA, wlB, seed)
		})
	}
	if testing.Short() {
		return
	}
	for _, topo := range []string{"", "cmesh", "torus"} {
		shape := ScalingSpec(mustSystem("LockillerTM"), stamp.Profile{}, 128)
		shape.Topo = topo
		seed := uint64(rng.Intn(1000) + 1)
		t.Run(fmt.Sprintf("%s|%d%s|kmeans->intruder", shape.System.Name, shape.Threads, shape.keySuffix()),
			func(t *testing.T) { checkReuse(t, shape, stamp.Kmeans(), stamp.Intruder(), seed) })
	}
}

// checkReuse runs wlA then wlB on one pooled machine of the given shape and
// requires wlB's result to deep-equal a fresh build's.
func checkReuse(t *testing.T, shape Spec, wlA, wlB stamp.Profile, seed uint64) {
	t.Helper()
	r := NewRunner(seed)
	r.Workers = 1
	specA, specB := shape, shape
	specA.Workload, specB.Workload = wlA, wlB
	if _, err := r.Get(specA); err != nil {
		t.Fatal(err)
	}
	reused, err := r.Get(specB) // reset-then-run on specA's machine
	if err != nil {
		t.Fatal(err)
	}
	specB.Seed = seed
	fresh, err := Execute(specB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Errorf("reset-then-run diverged from fresh-build-then-run for %s:\nfresh : %+v\nreused: %+v",
			specB.Key(), fresh, reused)
	}
}

// TestMachinePoolLRU is the white-box pool test: acquire matches by shape
// and prefers the most recently released machine, and the pool never holds
// more than poolCap entries (oldest evicted first).
func TestMachinePoolLRU(t *testing.T) {
	var p machinePool
	if p.acquire("a") != nil {
		t.Fatal("empty pool returned a machine")
	}
	mA1 := NewMachineFor(Spec{System: mustSystem("CGL"), Workload: tinyProfile(),
		Threads: 2, Cache: SmallCache(), Seed: 1}, ExecOptions{})
	mA2 := NewMachineFor(Spec{System: mustSystem("CGL"), Workload: tinyProfile(),
		Threads: 2, Cache: SmallCache(), Seed: 1}, ExecOptions{})
	p.release("a", mA1)
	p.release("a", mA2)
	if got := p.acquire("a"); got != mA2 {
		t.Fatal("acquire did not return the most recently released machine")
	}
	if got := p.acquire("a"); got != mA1 {
		t.Fatal("second acquire did not return the older machine")
	}
	if p.acquire("a") != nil {
		t.Fatal("drained pool returned a machine")
	}

	// Overfill with distinct keys: the oldest entries must fall out.
	for i := 0; i < poolCap+2; i++ {
		p.release(fmt.Sprintf("k%d", i), mA1)
	}
	if len(p.free) != poolCap {
		t.Fatalf("pool holds %d entries, want cap %d", len(p.free), poolCap)
	}
	if p.acquire("k0") != nil || p.acquire("k1") != nil {
		t.Fatal("evicted entries still acquirable")
	}
	if p.acquire(fmt.Sprintf("k%d", poolCap+1)) == nil {
		t.Fatal("newest entry missing after eviction")
	}
}

// TestRunnerProfilerPooled runs one sweep whose specs share shapes on a
// plain runner and on a profiled one. Profiling attaches a probe to pooled
// machines, so the results must match and every executed event must reach
// the sweep profile.
func TestRunnerProfilerPooled(t *testing.T) {
	var specs []Spec
	for _, wl := range []stamp.Profile{tinyProfile(), stamp.Intruder(), stamp.Kmeans()} {
		for _, sys := range []string{"Baseline", "LockillerTM"} {
			specs = append(specs, Spec{System: mustSystem(sys), Workload: wl, Threads: 2, Cache: SmallCache()})
		}
	}
	plain, profiled := NewRunner(1), NewRunner(1)
	plain.Workers, profiled.Workers = 1, 1
	profiled.Profiler = obs.NewProfiler()
	for _, r := range []*Runner{plain, profiled} {
		if err := r.RunAll(specs); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(profiled.pool.free); n != 2 {
		t.Errorf("profiled runner pooled %d machines, want one per shape (2)", n)
	}
	var events uint64
	for _, s := range specs {
		want, got := mustRun(t)(plain.Get(s)), mustRun(t)(profiled.Get(s))
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: profiled result differs:\nplain:    %+v\nprofiled: %+v", s.Key(), want, got)
		}
		events += got.EventsExecuted
	}
	if got := profiled.Profiler.Events(); got != events {
		t.Errorf("sweep profile holds %d events, the runs executed %d", got, events)
	}
}

// TestResetDetachesObservers runs a machine under all three observers,
// Resets it and runs another workload bare: the first run's tracer,
// telemetry and probe must come out unchanged, and the reset machine must
// equal a fresh bare build field for field.
func TestResetDetachesObservers(t *testing.T) {
	first := Spec{System: mustSystem("LockillerTM"), Workload: tinyProfile(),
		Threads: 2, Cache: SmallCache(), Seed: 1}
	second := first
	second.Workload = stamp.Kmeans()
	o := newObservers()
	m := NewMachineFor(first, o.opts())
	mustRun(t)(m.Run())
	exports, traced, probed := o.exports(t), o.tracer.Total(), o.probe.Events()
	if traced == 0 || probed == 0 || o.tel.Reg.Samples() == 0 {
		t.Fatalf("observers recorded nothing: %d trace events, %d probe events, %d samples",
			traced, probed, o.tel.Reg.Samples())
	}

	m.Reset(second.Seed, second.System.Name, second.Workload.Name,
		stamp.Programs(second.Workload, second.Threads, second.Seed))
	if diffs := cpu.ResetDiff(NewMachineFor(second, ExecOptions{}), m); len(diffs) > 0 {
		t.Errorf("reset machine differs from a fresh bare build:\n%v", diffs)
	}
	mustRun(t)(m.Run())
	if o.tracer.Total() != traced || o.probe.Events() != probed {
		t.Errorf("bare run after Reset reached the first run's observers: trace events %d -> %d, probe events %d -> %d",
			traced, o.tracer.Total(), probed, o.probe.Events())
	}
	after := o.exports(t)
	for i, name := range []string{"metrics JSON", "Chrome trace", "text trace"} {
		if !bytes.Equal(exports[i], after[i]) {
			t.Errorf("%s changed during the bare run after Reset", name)
		}
	}
}
