package main

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/stamp"
)

// workload is one benchmark input set. A run of it draws `seeds` program
// seeds from the benchmark seed (seedsFor), because one seed's programs set
// a workload's cost only to within several percent.
//
// A sweep's pass runs specs(seed) for one program seed through a fresh
// harness.Runner (reuse on, sweepWorkers workers); successive passes take
// the seeds in turn. A single-point loop is one closed-loop client: its
// pass runs the one spec of every seed in turn, each by regenerating the
// programs, Resetting one machine and Running it.
type workload struct {
	name  string
	seeds int
	specs func(seed uint64) []harness.Spec
	// sweep runs one pass through r; nil marks a single-point loop.
	sweep func(r *harness.Runner, specs []harness.Spec) error
}

var workloads = []workload{
	{name: "fig7-quick", seeds: 4, specs: fig7Specs, sweep: func(r *harness.Runner, _ []harness.Spec) error {
		_, err := harness.RunFig7(r, harness.Fig7Systems(), fig7Workloads(), fig7Threads)
		return err
	}},
	{name: "scale-256", seeds: 8, specs: scaleSpecs, sweep: func(r *harness.Runner, specs []harness.Spec) error {
		return r.RunAll(specs)
	}},
	{name: "kmeans-8t", seeds: 16, specs: pointSpec("LockillerTM", stamp.Kmeans(), 8)},
	{name: "intruder-32t", seeds: 16, specs: pointSpec("LockillerTM", stamp.Intruder(), 32)},
}

// seedsFor returns the program seeds of a run with benchmark seed base:
// (base−1)·n+1 … base·n, so benchmark seed 1 starts at the repository's
// canonical seed 1 and no two benchmark seeds share programs.
func (w workload) seedsFor(base uint64) []uint64 {
	out := make([]uint64, w.seeds)
	for i := range out {
		out[i] = (base-1)*uint64(w.seeds) + 1 + uint64(i)
	}
	return out
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// The `lockillerbench -fig 7 -quick` scope.
var fig7Threads = []int{2, 8, 32}

func fig7Workloads() []stamp.Profile {
	return []stamp.Profile{stamp.Intruder(), stamp.Vacation(), stamp.Yada()}
}

// fig7Specs lists the 72 simulations RunFig7 runs for fig7-quick: CGL plus
// the seven Fig. 7 systems on every (workload, threads) cell.
func fig7Specs(seed uint64) []harness.Spec {
	systems := append([]harness.SystemDef{mustSystem("CGL")}, harness.Fig7Systems()...)
	var out []harness.Spec
	for _, wl := range fig7Workloads() {
		for _, t := range fig7Threads {
			for _, s := range systems {
				out = append(out, harness.Spec{System: s, Workload: wl, Threads: t,
					Cache: harness.TypicalCache(), Seed: seed})
			}
		}
	}
	return out
}

// scaleSpecs is the scaling sweep's large end on intruder. The
// recovery-only systems are left out: each takes about 30 s per run at 256
// cores.
func scaleSpecs(seed uint64) []harness.Spec {
	var out []harness.Spec
	for _, n := range []int{128, 256} {
		for _, name := range []string{"CGL", "LockillerTM-RWL", "LockillerTM-RWIL", "LockillerTM"} {
			s := harness.ScalingSpec(mustSystem(name), stamp.Intruder(), n)
			s.Seed = seed
			out = append(out, s)
		}
	}
	return out
}

// pointSpec is a single-point loop's one simulation.
func pointSpec(system string, wl stamp.Profile, threads int) func(uint64) []harness.Spec {
	return func(seed uint64) []harness.Spec {
		return []harness.Spec{{System: mustSystem(system), Workload: wl, Threads: threads,
			Cache: harness.TypicalCache(), Seed: seed}}
	}
}

// shapeKey identifies the machine shape a spec needs: the fields the
// Runner's machine pool keys on, less the ones no benchmark spec sets.
func shapeKey(s harness.Spec) string {
	return fmt.Sprintf("%s|%d|%s|%d|%d", s.System.Name, s.Threads, s.Cache.Name, s.Cores, s.ClusterSize)
}

func mustSystem(name string) harness.SystemDef {
	s, err := harness.SystemByName(name)
	if err != nil {
		panic(err)
	}
	return s
}
