package cpu_test

import (
	"bytes"
	"testing"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/stamp"
)

// TestGeneratedRunAllocatesNoOps pins on-demand op generation on yada, a
// Regenerate workload: a warm Reset+Run of LockillerTM/yada/8 over the
// generated programs allocates no more than the same run over the same
// programs materialized (exported, then imported), so drawing every plain
// section, static body and per-attempt body into the cores' op buffers
// allocates nothing. Drawing a fresh slice per attempt instead adds an
// allocation per attempt (839 of them here).
func TestGeneratedRunAllocatesNoOps(t *testing.T) {
	sys := system(t, "LockillerTM")
	spec := harness.Spec{System: sys, Workload: stamp.Yada(), Threads: 8,
		Cache: harness.TypicalCache(), Seed: 1}
	generated := stamp.Programs(spec.Workload, spec.Threads, spec.Seed)
	var buf bytes.Buffer
	// LockillerTM has no lock subscription, so no abort spares the retry
	// budget: attempts never pass MaxRetries+1 and the replay is exact.
	if err := cpu.ExportPrograms(&buf, generated, sys.HTM.MaxRetries+1); err != nil {
		t.Fatal(err)
	}
	stored, err := cpu.ImportPrograms(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := harness.NewMachineFor(spec, harness.ExecOptions{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var cycles [2]uint64
	allocs := func(i int, progs []cpu.Program) float64 {
		return testing.AllocsPerRun(1, func() {
			m.Reset(spec.Seed, sys.Name, spec.Workload.Name, progs)
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			cycles[i] = res.ExecCycles
		})
	}
	gen, mat := allocs(0, generated), allocs(1, stored)
	if cycles[0] != cycles[1] {
		t.Fatalf("replay diverged: %d cycles generated, %d materialized", cycles[0], cycles[1])
	}
	if gen > mat {
		t.Fatalf("warm Reset+Run made %.0f allocations over generated programs, %.0f over materialized ones", gen, mat)
	}
}
