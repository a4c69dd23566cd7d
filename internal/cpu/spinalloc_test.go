package cpu_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/stamp"
)

// TestSpinWaitRunAllocs pins the allocation-free spin-wait and attempt path.
// Baseline uses the classic interface, so its cores spin on the fallback
// lock before every xbegin (Listing 1's retry strategy); on intruder at 8
// threads that is tens of thousands of lock re-reads per run. A Reset+Run
// on a machine that has already run allocates about 130 objects, the
// per-run residue once the memory system stopped allocating per event
// (TestWarmRunAllocs); a closure per spin iteration alone adds about 80k.
func TestSpinWaitRunAllocs(t *testing.T) {
	sys := system(t, "Baseline")
	spec := harness.Spec{System: sys, Workload: stamp.Intruder(), Threads: 8,
		Cache: harness.TypicalCache(), Seed: 1}
	progs := stamp.Programs(spec.Workload, spec.Threads, spec.Seed)
	m := harness.NewMachineFor(spec, harness.ExecOptions{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var runErr error
	allocs := testing.AllocsPerRun(1, func() {
		m.Reset(spec.Seed, sys.Name, spec.Workload.Name, progs)
		_, runErr = m.Run()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs > 1_000 {
		t.Fatalf("Reset+Run of Baseline/intruder/8 made %.0f allocations, want <= 1000", allocs)
	}
	t.Logf("Reset+Run allocations: %.0f", allocs)
}

// TestLockSectionRunAllocs pins the allocation-free lock section. CGL runs
// every atomic section under the fallback lock, so a Reset+Run of kmeans
// at 8 threads acquires and releases it 2,560 times, and its cores cross
// two barriers (16 arrivals); every acquire, handover, release and barrier
// crossing completes through a prebound continuation and a typed core
// event. The run allocates about 20 objects, its per-run residue; one
// closure per lock section adds 2,560, and the six per section the lock
// path once built, with a lock queue that re-grew as it slid, about 16k.
func TestLockSectionRunAllocs(t *testing.T) {
	sys := system(t, "CGL")
	spec := harness.Spec{System: sys, Workload: stamp.Kmeans(), Threads: 8,
		Cache: harness.TypicalCache(), Seed: 1}
	progs := stamp.Programs(spec.Workload, spec.Threads, spec.Seed)
	m := harness.NewMachineFor(spec, harness.ExecOptions{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var runErr error
	allocs := testing.AllocsPerRun(1, func() {
		m.Reset(spec.Seed, sys.Name, spec.Workload.Name, progs)
		_, runErr = m.Run()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if m.Lock.Acquisitions != 2560 || m.Barrier.Crossings != 2 {
		t.Fatalf("run took the lock %d times and crossed %d barriers, want 2560 and 2",
			m.Lock.Acquisitions, m.Barrier.Crossings)
	}
	if allocs > 500 {
		t.Fatalf("Reset+Run of CGL/kmeans/8 made %.0f allocations, want <= 500", allocs)
	}
	t.Logf("Reset+Run allocations: %.0f", allocs)
}
