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
// on a machine that has already run once allocates about 15k objects; a
// closure per spin iteration alone brings that to about 95k.
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
	if allocs > 30_000 {
		t.Fatalf("Reset+Run of Baseline/intruder/8 made %.0f allocations, want <= 30000", allocs)
	}
	t.Logf("Reset+Run allocations: %.0f", allocs)
}
