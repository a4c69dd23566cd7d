// Three-level vs two-level: why the paper rebuilt the protocol.
//
// The gem5 HTM baseline the paper started from (MESI-Three-Level-HTM) adds
// a private middle cache per core and flushes L1 lines into it on every
// external request — even plain loads. The paper replaced it with a
// streamlined two-level protocol (§IV-A), keeping transactional capacity
// bounded by the L1 — the best-effort envelope every commercial HTM has.
//
// This example runs the same workloads on both organizations and exposes
// the trade-off: the middle cache absorbs transactional overflows (zero
// capacity aborts, higher commit rate — it effectively changes the
// best-effort capacity limits) while the flush-on-forward design makes
// every producer-consumer handover strictly slower (see the ping-pong
// microbenchmark in internal/coherence's tests). The paper's evaluation
// uses the two-level organization so its capacity-overflow mechanisms
// (HTMLock signatures, switchingMode) are exercised as on real hardware.
//
//	go run ./examples/threelevel
package main

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/stamp"
)

func main() {
	sys, err := harness.SystemByName("Baseline")
	if err != nil {
		panic(err)
	}
	run := func(wl stamp.Profile, threads int, threeLevel bool) {
		spec := harness.Spec{System: sys, Workload: wl, Threads: threads, Cache: harness.TypicalCache(), Seed: 1}
		cfg := spec.Config()
		label := sys.Name
		if threeLevel {
			label += "-3L"
			cfg.Machine.MidSize = 64 * 1024 // private 64KB middle cache
			cfg.Machine.MidWays = 8
		}
		res, err := cpu.NewMachine(cfg, label, wl.Name, stamp.Programs(wl, threads, 1)).Run()
		if err != nil {
			panic(err)
		}
		_, by := res.TotalAborts()
		fmt.Printf("  %-12s cycles=%-9d commit=%.3f of-aborts=%d mid-hits=%d\n",
			label, res.ExecCycles, res.CommitRate(), by[htm.CauseOverflow],
			res.Traffic.L1Misses-res.Traffic.MemFetches)
	}

	fmt.Println("vacation, 8 threads (sharing-heavy: two-level wins)")
	run(stamp.Vacation(), 8, false)
	run(stamp.Vacation(), 8, true)

	fmt.Println("labyrinth, 2 threads (overflow-heavy: the middle cache absorbs write sets)")
	run(stamp.Labyrinth(), 2, false)
	run(stamp.Labyrinth(), 2, true)
}
