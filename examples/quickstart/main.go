// Quickstart: build a tiny transactional workload with the public API and
// compare coarse-grained locking, requester-win best-effort HTM, and the
// full LockillerTM system on it. Exits 1 if any system loses an update.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mem"
)

func main() {
	const threads = 32

	// The classic transactional-memory demo: money transfers between
	// shared accounts. Each transaction atomically updates two accounts —
	// the two-line write pattern that makes requester-win HTM prone to
	// friendly fire. The updates are verified functional counters
	// (cpu.RMW), so the run also checks end-to-end atomicity: a lost
	// update anywhere in the protocol would break the final tally.
	const perThread = 100
	layout := mem.NewLayout()
	accounts := layout.Alloc(24)

	programs := make([]cpu.Program, threads)
	for th := 0; th < threads; th++ {
		var prog cpu.Sections
		for i := 0; i < perThread; i++ {
			from := accounts.Pick(th*17 + i*13)
			to := accounts.Pick(th*29 + i*7 + 1)
			prog = append(prog,
				cpu.AtomicStatic([]cpu.Op{
					cpu.RMW(from),
					cpu.Compute(30),
					cpu.RMW(to),
				}),
				cpu.Plain([]cpu.Op{cpu.Compute(40)}),
			)
		}
		programs[th] = prog
	}

	var cglCycles uint64
	atomicAll := true
	for _, name := range []string{"CGL", "Baseline", "LockillerTM"} {
		sys, err := harness.SystemByName(name)
		if err != nil {
			panic(err)
		}
		spec := harness.Spec{System: sys, Threads: threads, Cache: harness.TypicalCache(), Seed: 1}
		m := cpu.NewMachine(spec.Config(), sys.Name, "transfers", programs)
		res, err := m.Run()
		if err != nil {
			panic(err)
		}
		if sys.Name == "CGL" {
			cglCycles = res.ExecCycles
		}
		var tally uint64
		for i := 0; i < accounts.N; i++ {
			tally += m.CounterValue(accounts.Pick(i))
		}
		atomic := tally == uint64(2*threads*perThread)
		atomicAll = atomicAll && atomic
		fmt.Printf("%-12s  cycles=%-9d commit-rate=%.3f  speedup-vs-CGL=%.2fx  atomic=%v\n",
			sys.Name, res.ExecCycles, res.CommitRate(),
			float64(cglCycles)/float64(res.ExecCycles), atomic)
	}
	if !atomicAll {
		os.Exit(1)
	}
}
