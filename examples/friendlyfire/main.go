// Friendly fire: the pathology the recovery mechanism exists to kill.
//
// Two (or more) transactions repeatedly write the same pair of lines in
// opposite orders. Under requester-win, each aborts the other — "a
// transaction is defeated by a transaction it has defeated" — so nobody
// advances and both eventually take the fallback lock. With the recovery
// mechanism + insts-based priority, the restarted loser carries the lowest
// priority and its toxic requests are withdrawn, so the winner commits.
//
//	go run ./examples/friendlyfire
package main

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mem"
)

func main() {
	const threads = 8
	const sections = 150

	// All threads hammer the same two lines, half in each order — maximal
	// friendly-fire pressure.
	a, b := mem.Line(1<<20), mem.Line(1<<20+1)

	programs := make([]cpu.Program, threads)
	for th := 0; th < threads; th++ {
		first, second := a, b
		if th%2 == 1 {
			first, second = b, a
		}
		var prog cpu.Sections
		for i := 0; i < sections; i++ {
			prog = append(prog,
				cpu.AtomicStatic([]cpu.Op{
					cpu.Write(first), cpu.Compute(30), cpu.Write(second), cpu.Compute(30),
				}),
				cpu.Plain([]cpu.Op{cpu.Compute(20)}),
			)
		}
		programs[th] = prog
	}

	fmt.Println("system            commit-rate  aborts  fallback-runs  cycles")
	for _, name := range []string{"Baseline", "LockillerTM-RAI", "LockillerTM-RRI", "LockillerTM-RWI"} {
		sys, err := harness.SystemByName(name)
		if err != nil {
			panic(err)
		}
		spec := harness.Spec{System: sys, Threads: threads, Cache: harness.TypicalCache(), Seed: 42}
		res, err := cpu.NewMachine(spec.Config(), sys.Name, "friendlyfire", programs).Run()
		if err != nil {
			panic(err)
		}
		total, _ := res.TotalAborts()
		var lockRuns uint64
		for _, c := range res.Cores {
			lockRuns += c.LockRuns
		}
		fmt.Printf("%-16s  %.3f        %-6d  %-13d  %d\n",
			sys.Name, res.CommitRate(), total, lockRuns, res.ExecCycles)
	}
}
