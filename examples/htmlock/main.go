// HTMLock: lock transactions and HTM transactions running concurrently.
//
// One workload mixes short, disjoint transactions (HTM heaven) with
// occasional giant transactions that always overflow the L1 and must take
// the fallback path. With the classic interface, every fallback execution
// kills all running transactions and serializes the machine; with HTMLock,
// the fallback runs as an irrevocable TL lock transaction that coexists
// with the disjoint HTM transactions, and switchingMode saves the
// overflowing transaction's work in place.
//
//	go run ./examples/htmlock
package main

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/stats"
)

func main() {
	const threads = 16
	layout := mem.NewLayout()
	private := make([]mem.Region, threads)
	for i := range private {
		private[i] = layout.Alloc(1024)
	}

	programs := make([]cpu.Program, threads)
	for th := 0; th < threads; th++ {
		var prog cpu.Sections
		for i := 0; i < 60; i++ {
			if th == 0 && i%10 == 5 {
				// A giant update: ~600 private lines, guaranteed L1 set
				// overflow -> fallback (or switchingMode rescue).
				var ops []cpu.Op
				for j := 0; j < 600; j++ {
					ops = append(ops, cpu.Write(private[th].Pick(j)))
				}
				prog = append(prog, cpu.AtomicStatic(ops))
			} else {
				// Small disjoint transaction on private data.
				p := private[th]
				prog = append(prog, cpu.AtomicStatic([]cpu.Op{
					cpu.Read(p.Pick(i)), cpu.Compute(10), cpu.Write(p.Pick(i + 64)),
				}))
			}
			prog = append(prog, cpu.Plain([]cpu.Op{cpu.Compute(30)}))
		}
		programs[th] = prog
	}

	fmt.Println("system            cycles     commit  waitlock%  lock%  switchLock%  aborted%")
	for _, name := range []string{"Baseline", "LockillerTM-RWIL", "LockillerTM"} {
		sys, err := harness.SystemByName(name)
		if err != nil {
			panic(err)
		}
		spec := harness.Spec{System: sys, Threads: threads, Cache: harness.TypicalCache(), Seed: 7}
		res, err := cpu.NewMachine(spec.Config(), sys.Name, "giants", programs).Run()
		if err != nil {
			panic(err)
		}
		bd := res.Breakdown()
		fmt.Printf("%-16s  %-9d  %.3f   %5.1f     %5.1f   %5.1f       %5.1f\n",
			sys.Name, res.ExecCycles, res.CommitRate(),
			100*bd[stats.CatWaitLock], 100*bd[stats.CatLock],
			100*bd[stats.CatSwitchLock], 100*bd[stats.CatAborted])
	}
}
