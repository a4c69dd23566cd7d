package cpu

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/priority"
	"repro/internal/stats"
)

func smallParams() coherence.Params {
	p := coherence.DefaultParams()
	p.Cores = 4
	p.LLCSize = 1 << 20
	return p
}

func run(t *testing.T, cfg Config, programs []Program) *stats.Run {
	t.Helper()
	m := NewMachine(cfg, "test", "unit", programs)
	r, err := m.Run()
	if err != nil {
		t.Fatalf("run failed: %v\n%v", err, r)
	}
	return r
}

func baselineHTM() htm.Config { return htm.Config{}.Defaults() }

func lockillerCfg() htm.Config {
	return htm.Config{
		Conflict: htm.Recovery{Policy: htm.WaitWakeup}, Overflow: htm.SwitchOverflow{},
		Priority: priority.InstsBased{}, HTMLock: true,
	}.Defaults()
}

// counterProgram builds nThreads programs that each atomically increment a
// shared counter line n times — the canonical contended workload.
func counterProgram(nThreads, n int, shared mem.Line) []Program {
	var ps []Program
	for th := 0; th < nThreads; th++ {
		var p Sections
		for i := 0; i < n; i++ {
			p = append(p, AtomicStatic([]Op{Read(shared), Compute(5), Write(shared)}))
			p = append(p, Plain([]Op{Compute(20)}))
		}
		ps = append(ps, p)
	}
	return ps
}

// TestMachineReadsDefaultedHTM pins that the core model reads the HTM
// config NewSystem defaulted and validated, not the raw cpu.Config copy: a
// bare htm.Config runs exactly like its Defaults().
func TestMachineReadsDefaultedHTM(t *testing.T) {
	progs := counterProgram(4, 30, 4096)
	bare := Config{Machine: smallParams(), HTM: htm.Config{}, Sync: SysHTM, Threads: 4, Seed: 3}
	m := NewMachine(bare, "bare", "unit", progs)
	if m.Sys.HTM.MaxRetries != baselineHTM().MaxRetries {
		t.Fatalf("Sys.HTM.MaxRetries = %d, want the default %d", m.Sys.HTM.MaxRetries, baselineHTM().MaxRetries)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	defaulted := bare
	defaulted.HTM = baselineHTM()
	want := run(t, defaulted, progs)
	if got.ExecCycles != want.ExecCycles || got.CommitRate() != want.CommitRate() {
		t.Fatalf("bare config: %d cycles, commit %.3f; defaulted: %d cycles, commit %.3f",
			got.ExecCycles, got.CommitRate(), want.ExecCycles, want.CommitRate())
	}
}

func TestSingleThreadHTMCommitsEverything(t *testing.T) {
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 1, Seed: 1}
	r := run(t, cfg, counterProgram(1, 50, 4096))
	if r.Sections() != 50 {
		t.Fatalf("sections = %d, want 50", r.Sections())
	}
	if r.CommitRate() != 1.0 {
		t.Fatalf("commit rate = %v, want 1.0 (no contention)", r.CommitRate())
	}
	if total, _ := r.TotalAborts(); total != 0 {
		t.Fatalf("aborts = %d, want 0", total)
	}
}

func TestCGLSerializesAndCompletes(t *testing.T) {
	cfg := Config{Machine: smallParams(), Sync: SysCGL, Threads: 4, Seed: 1, HTM: baselineHTM()}
	r := run(t, cfg, counterProgram(4, 25, 4096))
	if r.Sections() != 100 {
		t.Fatalf("sections = %d, want 100", r.Sections())
	}
	for _, c := range r.Cores {
		if c.LockRuns != 25 {
			t.Fatalf("every CGL section must run under the lock: %d", c.LockRuns)
		}
		if c.Attempts != 0 {
			t.Fatal("CGL must not attempt transactions")
		}
	}
	bd := r.Breakdown()
	if bd[stats.CatLock] == 0 || bd[stats.CatWaitLock] == 0 {
		t.Fatalf("CGL breakdown lacks lock/waitlock time: %v", bd)
	}
}

func TestContendedHTMCompletesAllSections(t *testing.T) {
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 4, Seed: 2}
	r := run(t, cfg, counterProgram(4, 25, 4096))
	if r.Sections() != 100 {
		t.Fatalf("sections = %d, want 100", r.Sections())
	}
	if total, _ := r.TotalAborts(); total == 0 {
		t.Fatal("4 threads hammering one line should conflict at least once")
	}
}

func TestRecoveryBeatsBaselineOnFriendlyFire(t *testing.T) {
	// The recovery mechanism should reduce aborts under heavy symmetric
	// contention compared to requester-win.
	progs := counterProgram(4, 50, 4096)
	base := run(t, Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 4, Seed: 3}, progs)
	rec := run(t, Config{
		Machine: smallParams(), Sync: SysHTM, Threads: 4, Seed: 3,
		HTM: htm.Config{Conflict: htm.Recovery{Policy: htm.WaitWakeup}, Priority: priority.InstsBased{}}.Defaults(),
	}, progs)
	if rec.CommitRate() <= base.CommitRate() {
		t.Fatalf("recovery commit rate %.3f should beat baseline %.3f",
			rec.CommitRate(), base.CommitRate())
	}
}

func TestFallbackPathTaken(t *testing.T) {
	// Force constant conflicts with a tiny retry budget: some sections
	// must fall back to the lock.
	hc := baselineHTM()
	hc.MaxRetries = 2
	cfg := Config{Machine: smallParams(), HTM: hc, Sync: SysHTM, Threads: 4, Seed: 4}
	r := run(t, cfg, counterProgram(4, 50, 4096))
	var lockRuns uint64
	for _, c := range r.Cores {
		lockRuns += c.LockRuns
	}
	if lockRuns == 0 {
		t.Fatal("no section took the fallback path despite 2-retry budget")
	}
	if r.Sections() != 200 {
		t.Fatalf("sections = %d, want 200", r.Sections())
	}
}

func TestMutexAbortsRecordedUnderBaseline(t *testing.T) {
	hc := baselineHTM()
	hc.MaxRetries = 1
	cfg := Config{Machine: smallParams(), HTM: hc, Sync: SysHTM, Threads: 4, Seed: 5}
	r := run(t, cfg, counterProgram(4, 50, 4096))
	_, by := r.TotalAborts()
	if by[htm.CauseMutex] == 0 {
		t.Fatalf("expected mutex-caused aborts with a hot fallback lock, got %v", by)
	}
}

func TestHTMLockEliminatesMutexAborts(t *testing.T) {
	hc := lockillerCfg()
	hc.MaxRetries = 2
	cfg := Config{Machine: smallParams(), HTM: hc, Sync: SysHTM, Threads: 4, Seed: 5}
	r := run(t, cfg, counterProgram(4, 50, 4096))
	_, by := r.TotalAborts()
	if by[htm.CauseMutex] != 0 {
		t.Fatalf("HTMLock must eliminate mutex aborts (Fig. 10), got %d", by[htm.CauseMutex])
	}
	if r.Sections() != 200 {
		t.Fatalf("sections = %d", r.Sections())
	}
}

func TestFaultAbortsAndFallsBack(t *testing.T) {
	p := Sections{AtomicStatic([]Op{Read(4096), Fault(), Write(4096)})}
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 1, Seed: 6}
	r := run(t, cfg, []Program{p})
	_, by := r.TotalAborts()
	if by[htm.CauseFault] == 0 {
		t.Fatal("fault aborts not recorded")
	}
	if r.Sections() != 1 {
		t.Fatal("faulting section must complete via the fallback path")
	}
	if r.Cores[0].LockRuns != 1 {
		t.Fatal("faulting section should end on the lock path")
	}
}

func TestOverflowAbortsBaselineButSwitchesUnderLockiller(t *testing.T) {
	// A transaction writing 6 lines of the same L1 set overflows 4 ways.
	sets := 32 * 1024 / 64 / 4
	var ops []Op
	for i := 0; i < 6; i++ {
		ops = append(ops, Write(mem.Line(4096+i*sets)))
	}
	prog := Sections{AtomicStatic(ops)}

	base := run(t, Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 1, Seed: 7}, []Program{prog})
	_, by := base.TotalAborts()
	if by[htm.CauseOverflow] == 0 {
		t.Fatalf("baseline should abort on overflow, got %v", by)
	}

	lk := run(t, Config{Machine: smallParams(), HTM: lockillerCfg(), Sync: SysHTM, Threads: 1, Seed: 7}, []Program{prog})
	if total, _ := lk.TotalAborts(); total != 0 {
		t.Fatalf("switchingMode should rescue the overflow, aborts=%d", total)
	}
	if lk.Cores[0].SwitchRuns != 1 {
		t.Fatalf("SwitchRuns = %d, want 1", lk.Cores[0].SwitchRuns)
	}
	bd := lk.Breakdown()
	if bd[stats.CatSwitchLock] == 0 {
		t.Fatal("switchLock cycles missing from breakdown")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Thread 0 does lots of work before the barrier; thread 1 little. Both
	// must cross together.
	mk := func(work uint64) Program {
		return Sections{
			Plain([]Op{Compute(work)}),
			BarrierSection(),
			Plain([]Op{Compute(10)}),
		}
	}
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 2, Seed: 8}
	r := run(t, cfg, []Program{mk(10_000), mk(10)})
	if r.Cores[0].Barriers != 1 || r.Cores[1].Barriers != 1 {
		t.Fatal("barrier crossings not recorded")
	}
	// Thread 1 waited: its total is dominated by the barrier wait.
	if r.ExecCycles < 10_000 {
		t.Fatalf("exec cycles %d too small for the barrier to have held", r.ExecCycles)
	}
}

func TestDynamicBodyRegeneratedPerAttempt(t *testing.T) {
	attempts := []int{}
	p := Sections{AtomicDynamic(func(attempt int) []Op {
		attempts = append(attempts, attempt)
		if attempt < 3 {
			return []Op{Read(4096), Fault()}
		}
		return []Op{Read(4096)}
	})}
	hc := baselineHTM()
	hc.MaxRetries = 10
	cfg := Config{Machine: smallParams(), HTM: hc, Sync: SysHTM, Threads: 1, Seed: 9}
	r := run(t, cfg, []Program{p})
	if len(attempts) != 3 {
		t.Fatalf("body generated %d times, want 3 (two faults then success)", len(attempts))
	}
	if r.CommitRate() != 1.0/3.0 {
		t.Fatalf("commit rate = %v", r.CommitRate())
	}
}

func TestBreakdownPartitionsAllCycles(t *testing.T) {
	cfg := Config{Machine: smallParams(), HTM: lockillerCfg(), Sync: SysHTM, Threads: 4, Seed: 10}
	r := run(t, cfg, counterProgram(4, 30, 4096))
	var sum float64
	for _, f := range r.Breakdown() {
		if f < 0 {
			t.Fatal("negative breakdown share")
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("breakdown sums to %v, want 1.0", sum)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *stats.Run {
		cfg := Config{Machine: smallParams(), HTM: lockillerCfg(), Sync: SysHTM, Threads: 4, Seed: 42}
		return run(t, cfg, counterProgram(4, 40, 4096))
	}
	a, b := mk(), mk()
	if a.ExecCycles != b.ExecCycles {
		t.Fatalf("same seed diverged: %d vs %d cycles", a.ExecCycles, b.ExecCycles)
	}
	if a.CommitRate() != b.CommitRate() {
		t.Fatal("commit rates diverged")
	}
}

func TestThreadsExceedCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 5, Seed: 1}
	NewMachine(cfg, "x", "y", counterProgram(5, 1, 4096))
}

// TestPlainSectionsPatWatchdog: a finished plain section is progress. One
// thread runs plain sections of missing loads, each far shorter than the
// watchdog window, for several windows in all; the run must complete.
func TestPlainSectionsPatWatchdog(t *testing.T) {
	const sections, loads = 20, 64
	var prog Sections
	for s := 0; s < sections; s++ {
		ops := make([]Op, loads)
		for i := range ops {
			ops[i] = Read(mem.Line(1<<20 + s*loads + i)) // every load misses
		}
		prog = append(prog, Plain(ops))
	}
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 1, Seed: 1}
	m := NewMachine(cfg, "test", "unit", []Program{prog})
	m.Engine.Watchdog = 50_000
	r, err := m.Run()
	if err != nil {
		t.Fatalf("run of %d plain sections failed: %v", sections, err)
	}
	if perSection := r.ExecCycles / sections; r.ExecCycles <= 2*m.Engine.Watchdog || perSection >= m.Engine.Watchdog/2 {
		t.Fatalf("%d cycles, %d per section: the run must span several watchdog windows of %d cycles, each section well inside one",
			r.ExecCycles, perSection, m.Engine.Watchdog)
	}
}
