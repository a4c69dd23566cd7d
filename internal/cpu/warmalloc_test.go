package cpu_test

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/stamp"
)

// TestWarmRunAllocs pins the memory system's allocation-free event paths:
// a memory fetch, an abort's flash clear, a blocked request, an HTMLock
// grant, a middle-cache promote or flush, and the end-of-run heat profile
// build no per-event objects. Each row Resets and Runs a machine that has
// already run twice; what remains is per-run residue, such as the result
// records.
//
// Measured at seed 1, the same with -race: 19–197 objects over the flat
// 8-thread rows (CGL, Baseline and LockillerTM on intruder read 19, 129 and
// 129), 217 at 32 threads, 44–134 over the three-level rows, and 1,325 at
// 128 cores, where sharer-set extension words and queue backings warm
// across recycled directory lines. Before the memory system stopped
// allocating per event, the flat 8-thread rows made 3,945–26,822 objects
// (CGL/intruder/8 the fewest), the three-level rows up to 35,853 and the
// 128-core row 29,254.
func TestWarmRunAllocs(t *testing.T) {
	type row struct {
		sys        string
		wl         stamp.Profile
		threads    int
		scale      bool // clustered ScalingSpec machine, one thread per core
		threeLevel bool // lockillersim -threelevel's middle cache
		bound      float64
	}
	var rows []row
	short := map[string]bool{"CGL": true, "Baseline": true, "LockillerTM": true}
	for _, sys := range harness.Systems() {
		for _, wl := range []stamp.Profile{stamp.Intruder(), stamp.VacationHigh()} {
			if testing.Short() && (!short[sys.Name] || wl.Name != "intruder") {
				continue
			}
			rows = append(rows, row{sys: sys.Name, wl: wl, threads: 8, bound: 1_000})
		}
	}
	if !testing.Short() {
		rows = append(rows,
			row{sys: "LockillerTM", wl: stamp.Intruder(), threads: 32, bound: 1_000},
			row{sys: "LockillerTM", wl: stamp.Intruder(), threads: 128, scale: true, bound: 5_000},
			row{sys: "Baseline", wl: stamp.Intruder(), threads: 8, threeLevel: true, bound: 1_000},
			row{sys: "LockillerTM", wl: stamp.Intruder(), threads: 8, threeLevel: true, bound: 1_000},
			row{sys: "LockillerTM", wl: stamp.Yada(), threads: 8, threeLevel: true, bound: 1_000},
		)
	}
	for _, r := range rows {
		name := fmt.Sprintf("%s/%s/%d", r.sys, r.wl.Name, r.threads)
		if r.threeLevel {
			name += "/threelevel"
		}
		t.Run(name, func(t *testing.T) {
			sys := system(t, r.sys)
			spec := harness.Spec{System: sys, Workload: r.wl, Threads: r.threads,
				Cache: harness.TypicalCache(), Seed: 1}
			if r.scale {
				spec = harness.ScalingSpec(sys, r.wl, r.threads)
				spec.Seed = 1
			}
			cfg := spec.Config()
			if r.threeLevel {
				cfg.Machine.MidSize, cfg.Machine.MidWays = 64*1024, 8
			}
			progs := stamp.Programs(spec.Workload, spec.Threads, spec.Seed)
			m := cpu.NewMachine(cfg, sys.Name, spec.Workload.Name, progs)
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
			if allocs > r.bound {
				t.Fatalf("warm Reset+Run made %.0f allocations, want <= %.0f", allocs, r.bound)
			}
			t.Logf("warm Reset+Run allocations: %.0f", allocs)
		})
	}
}
