// Package core_test runs the core model end to end through the
// programmatic API that README and examples/ document: the Table II rows
// of harness.Systems on STAMP workloads, and hand-built programs on
// cpu.NewMachine via Spec.Config. The directory holds tests only; each
// system is defined once, in harness.Systems.
package core_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/stamp"
)

func spec(t *testing.T, system string, seed uint64) harness.Spec {
	t.Helper()
	sys, err := harness.SystemByName(system)
	if err != nil {
		t.Fatal(err)
	}
	return harness.Spec{System: sys, Threads: 4, Cache: harness.SmallCache(), Seed: seed}
}

// TestPresetsRunKmeans runs every Table II row on kmeans to completion.
func TestPresetsRunKmeans(t *testing.T) {
	for _, sys := range harness.Systems() {
		res, err := harness.Execute(harness.Spec{System: sys, Workload: stamp.Kmeans(), Threads: 4,
			Cache: harness.SmallCache(), Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if res.Sections() == 0 || res.ExecCycles == 0 {
			t.Fatalf("%s: empty result", sys.Name)
		}
	}
}

// TestSectionConservation runs every Table II row on one workload and
// requires each to complete exactly the atomic sections its programs hold:
// no system may lose or repeat a section.
func TestSectionConservation(t *testing.T) {
	wl := stamp.Intruder()
	var want uint64
	for _, p := range stamp.Programs(wl, 4, 9) {
		want += uint64(cpu.CountAtomic(p))
	}
	for _, sys := range harness.Systems() {
		res, err := harness.Execute(harness.Spec{System: sys, Workload: wl, Threads: 4,
			Cache: harness.SmallCache(), Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if res.Sections() != want {
			t.Errorf("%s completed %d sections, want %d", sys.Name, res.Sections(), want)
		}
	}
}

// TestCustomWorkloadAPI pins the custom-program path README and examples/
// document: a Table II row's Spec.Config on cpu.NewMachine runs a
// hand-built program to completion, identically twice.
func TestCustomWorkloadAPI(t *testing.T) {
	prog := cpu.Sections{
		cpu.AtomicStatic([]cpu.Op{cpu.Read(9000), cpu.Compute(10), cpu.Write(9000)}),
		cpu.Plain([]cpu.Op{cpu.Compute(50)}),
	}
	s := spec(t, "LockillerTM", 7)
	s.Threads, s.Cache = 2, harness.TypicalCache()
	var cycles [2]uint64
	for i := range cycles {
		res, err := cpu.NewMachine(s.Config(), s.System.Name, "custom", []cpu.Program{prog, prog}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Sections() != 2 {
			t.Fatalf("sections = %d, want 2", res.Sections())
		}
		cycles[i] = res.ExecCycles
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("same spec, same program: %d vs %d cycles", cycles[0], cycles[1])
	}
}

// TestDeterministicAcrossRuns builds two fresh machines from one spec and
// one set of STAMP programs and requires identical results.
func TestDeterministicAcrossRuns(t *testing.T) {
	s := spec(t, "LockillerTM", 3)
	progs := stamp.Programs(stamp.VacationHigh(), s.Threads, s.Seed)
	r1, err := cpu.NewMachine(s.Config(), s.System.Name, "vacation-high", progs).Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cpu.NewMachine(s.Config(), s.System.Name, "vacation-high", progs).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExecCycles != r2.ExecCycles || r1.CommitRate() != r2.CommitRate() {
		t.Fatal("identical configs diverged")
	}
}
