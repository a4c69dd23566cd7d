package cpu_test

import (
	"bytes"
	"testing"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mem"
)

// The atomicity battery: every synchronization system must make N threads'
// atomic counter increments sum exactly. A lost update — two transactions
// reading the same value and both committing — would make the final count
// come up short, exposing any isolation hole in the protocol (missed
// conflict detection, a reject that let a stale read survive, a speculative
// write leaking before commit). It is an external test package so it can
// range over harness.Systems(), the one definition of Table II.

// smallParams is a 4-core machine with a 1 MiB LLC.
func smallParams() coherence.Params {
	p := coherence.DefaultParams()
	p.Cores = 4
	p.LLCSize = 1 << 20
	return p
}

func atomicityPrograms(threads, incs int, counters []mem.Line) []cpu.Program {
	progs := make([]cpu.Program, threads)
	for th := 0; th < threads; th++ {
		var p cpu.Sections
		for i := 0; i < incs; i++ {
			c := counters[(th+i)%len(counters)]
			p = append(p,
				cpu.AtomicStatic([]cpu.Op{cpu.Compute(3), cpu.RMW(c), cpu.Compute(2)}),
				cpu.Plain([]cpu.Op{cpu.Compute(10)}),
			)
		}
		progs[th] = p
	}
	return progs
}

// system returns a Table II row by name.
func system(t *testing.T, name string) harness.SystemDef {
	t.Helper()
	s, err := harness.SystemByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAtomicityAllSystems(t *testing.T) {
	const threads, incs = 4, 60
	counters := []mem.Line{1 << 21, 1<<21 + 1} // two hot counters
	for _, sys := range harness.Systems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := cpu.Config{Machine: smallParams(), HTM: sys.HTM, Sync: sys.Sync, Threads: threads, Seed: seed}
				m := cpu.NewMachine(cfg, sys.Name, "atomicity", atomicityPrograms(threads, incs, counters))
				if _, err := m.Run(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				var total uint64
				for _, c := range counters {
					total += m.CounterValue(c)
				}
				if want := uint64(threads * incs); total != want {
					t.Fatalf("seed %d: counters sum to %d, want %d — LOST UPDATE (atomicity violated)",
						seed, total, want)
				}
			}
		})
	}
}

// TestAtomicityUnderOverflowAndFaults stresses the fallback/switching
// paths: large write sets (overflow) and faults force lock-mode and STL
// completions, which must apply staged updates exactly once.
func TestAtomicityUnderOverflowAndFaults(t *testing.T) {
	const threads = 4
	counter := mem.Line(1 << 21)
	sets := 32 * 1024 / 64 / 4
	progs := make([]cpu.Program, threads)
	for th := 0; th < threads; th++ {
		var p cpu.Sections
		for i := 0; i < 12; i++ {
			ops := []cpu.Op{cpu.RMW(counter)}
			if i%3 == 0 {
				// Overflow the L1 set mid-transaction.
				for j := 0; j < 5; j++ {
					ops = append(ops, cpu.Write(mem.Line(1<<22+th*4096+j*sets)))
				}
			}
			if i%4 == 1 {
				ops = append(ops, cpu.Fault())
			}
			p = append(p, cpu.AtomicStatic(ops), cpu.Plain([]cpu.Op{cpu.Compute(20)}))
		}
		progs[th] = p
	}
	for _, sys := range harness.Systems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			cfg := cpu.Config{Machine: smallParams(), HTM: sys.HTM, Sync: sys.Sync, Threads: threads, Seed: 5}
			m := cpu.NewMachine(cfg, sys.Name, "stress", progs)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if got, want := m.CounterValue(counter), uint64(threads*12); got != want {
				t.Fatalf("counter = %d, want %d", got, want)
			}
		})
	}
}

// TestAtomicityLockTxVisibility is the regression test for a lost-update
// window this battery's quickstart variant caught: a TL lock transaction's
// staged updates must become visible no later than hlend wakes the
// requesters it rejected — a woken reader in the gap between hlend and the
// lock-release access otherwise reads pre-transaction values. Tiny retry
// budgets force constant fallbacks; 8 threads on 2 hot counters maximize
// wake-then-read pressure.
func TestAtomicityLockTxVisibility(t *testing.T) {
	sys := system(t, "LockillerTM")
	hc := sys.HTM
	hc.MaxRetries = 1 // nearly everything falls back to TL
	p := smallParams()
	p.Cores = 16
	counters := []mem.Line{1 << 21, 1<<21 + 1}
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := cpu.Config{Machine: p, HTM: hc, Sync: sys.Sync, Threads: 8, Seed: seed}
		m := cpu.NewMachine(cfg, "tl-vis", "atomicity", atomicityPrograms(8, 40, counters))
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		var total uint64
		for _, c := range counters {
			total += m.CounterValue(c)
		}
		if want := uint64(8 * 40); total != want {
			t.Fatalf("seed %d: counters sum to %d, want %d — lock-tx visibility window reopened",
				seed, total, want)
		}
		var lockRuns uint64
		for _, c := range m.Stats.Cores {
			lockRuns += c.LockRuns + c.SwitchRuns
		}
		if lockRuns == 0 {
			t.Fatal("test exercised no lock transactions; tighten the retry budget")
		}
	}
}

// TestRMWReadYourOwnWrite: a single thread incrementing one counter
// yields exact counts too (read-your-own-write within a transaction).
func TestRMWReadYourOwnWrite(t *testing.T) {
	sys := system(t, "Baseline")
	prog := cpu.Sections{cpu.AtomicStatic([]cpu.Op{cpu.RMW(1 << 21), cpu.RMW(1 << 21), cpu.RMW(1 << 21)})}
	cfg := cpu.Config{Machine: smallParams(), HTM: sys.HTM, Sync: sys.Sync, Threads: 1, Seed: 1}
	m := cpu.NewMachine(cfg, "t", "ryow", []cpu.Program{prog})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.CounterValue(1 << 21); got != 3 {
		t.Fatalf("counter = %d, want 3 (read-your-own-write broken)", got)
	}
}

func TestRMWTraceRoundTrip(t *testing.T) {
	// RMW ops survive export/replay.
	progs := atomicityPrograms(2, 5, []mem.Line{1 << 21})
	var buf bytes.Buffer
	if err := cpu.ExportPrograms(&buf, progs, 2); err != nil {
		t.Fatal(err)
	}
	got, err := cpu.ImportPrograms(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range got[0].AppendOps(nil, 0, 1) {
		if op.Kind == cpu.OpRMW {
			found = true
		}
	}
	if !found {
		t.Fatal("RMW lost in serialization")
	}
}
