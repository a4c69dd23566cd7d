package cpu

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/stats"
)

// resetCfg is the shape the walk tests exercise: the lockiller HTM stack on
// the small 4-core machine, enough contention for aborts, parks, wakes, and
// fallback lock traffic to dirty every subsystem before the reset.
func resetCfg(seed uint64) Config {
	return Config{Machine: smallParams(), HTM: lockillerCfg(), Sync: SysHTM, Threads: 4, Seed: seed}
}

// runAndReset builds a machine, dirties it with a full contended run, and
// resets it for the next run's inputs.
func runAndReset(t *testing.T, cfg Config, progs []Program) *Machine {
	t.Helper()
	m := NewMachine(cfg, "test", "unit", counterProgram(cfg.Threads, 40, 4096))
	if _, err := m.Run(); err != nil {
		t.Fatalf("dirtying run failed: %v", err)
	}
	m.Reset(cfg.Seed, "test", "unit", progs)
	return m
}

func TestResetDiffCleanAfterDirtyRun(t *testing.T) {
	cfg := resetCfg(42)
	progs := counterProgram(cfg.Threads, 25, 8192)
	reset := runAndReset(t, cfg, progs)
	fresh := NewMachine(cfg, "test", "unit", progs)
	if diffs := ResetDiff(fresh, reset); len(diffs) != 0 {
		t.Fatalf("reset machine differs from fresh:\n  %s", strings.Join(diffs, "\n  "))
	}
}

func TestResetDiffCatchesDirtyMachine(t *testing.T) {
	cfg := resetCfg(42)
	progs := counterProgram(cfg.Threads, 40, 4096)
	fresh := NewMachine(cfg, "test", "unit", progs)
	dirty := NewMachine(cfg, "test", "unit", progs)
	if _, err := dirty.Run(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if diffs := ResetDiff(fresh, dirty); len(diffs) == 0 {
		t.Fatal("walk found no difference between a fresh and a fully-run machine")
	}
}

// TestResetDiffCatchesPlantedFields plants one stale value in each layer a
// reset must cover — engine clock, cache array, lock stats, core state, the
// HTMLock application state of the arbiter and the L1s — and asserts the
// walk reports every plant. This is the fixture guarding
// the walk itself: a walk that silently skips a layer would wave through a
// future Reset that forgets it. (The companion under -tags reuseforget
// drives the same check through Machine.Reset's own code path.)
func TestResetDiffCatchesPlantedFields(t *testing.T) {
	cfg := resetCfg(42)
	progs := counterProgram(cfg.Threads, 10, 8192)
	plants := []struct {
		name string
		mut  func(m *Machine)
	}{
		{"core retry state", func(m *Machine) { m.Cores[0].retries = 1 }},
		{"core token", func(m *Machine) { m.Cores[1].token = 7 }},
		{"lock stats", func(m *Machine) { m.Lock.Acquisitions = 3 }},
		{"barrier crossings", func(m *Machine) { m.Barrier.Crossings = 2 }},
		{"lock queue", func(m *Machine) { m.Lock.queue = append(m.Lock.queue, m.Cores[1]) }},
		{"barrier waiting", func(m *Machine) { m.Barrier.waiting = append(m.Barrier.waiting, m.Cores[2]) }},
		{"functional counter", func(m *Machine) { m.counters[4096] = 1 }},
		{"noc stats", func(m *Machine) { m.Sys.Net.Messages = 9 }},
		{"l1 stats", func(m *Machine) { m.Sys.L1s[2].Hits = 5 }},
		{"l1 cache line", func(m *Machine) {
			arr := m.Sys.L1s[0].Array()
			arr.Install(arr.Victim(4096, nil), 4096, cache.Shared)
		}},
		{"stats run", func(m *Machine) { m.Stats.Cores[0].Commits = 1 }},
		{"arbiter queued core", func(m *Machine) { plantField(m.Sys.Arbiter, "waiting", []int{2}) }},
		{"l1 pending TL completion", func(m *Machine) { plantField(m.Sys.L1s[1], "tlDone", func() {}) }},
		{"l1 switch-retry line", func(m *Machine) { plantField(m.Sys.L1s[3], "sw.line", mem.Line(4096)) }},
		{"l1 switch-retry completion", func(m *Machine) { plantField(m.Sys.L1s[3], "sw.done", func() {}) }},
	}
	for _, p := range plants {
		t.Run(p.name, func(t *testing.T) {
			fresh := NewMachine(cfg, "test", "unit", progs)
			planted := NewMachine(cfg, "test", "unit", progs)
			p.mut(planted)
			if diffs := ResetDiff(fresh, planted); len(diffs) == 0 {
				t.Fatalf("walk missed planted %s", p.name)
			}
		})
	}
}

// plantField stores val in the field at path ("f" or "f.g") of the struct
// obj points to, unexported or not — how a plant reaches run state another
// package keeps private.
func plantField(obj any, path string, val any) {
	v := reflect.ValueOf(obj).Elem()
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Set(reflect.ValueOf(val))
}

// TestResetRunBitIdentity is the package-level identity check the harness
// golden tests scale up: reset-then-run must equal fresh-build-then-run
// byte for byte in the collected stats.
func TestResetRunBitIdentity(t *testing.T) {
	cfg := resetCfg(7)
	progsA := counterProgram(cfg.Threads, 40, 4096)

	m := NewMachine(cfg, "test", "unit", progsA)
	if _, err := m.Run(); err != nil {
		t.Fatalf("first run failed: %v", err)
	}

	mkProgs := func() []Program { return counterProgram(cfg.Threads, 30, 8192) }
	m.Reset(99, "test", "unit", mkProgs())
	reused, err := m.Run()
	if err != nil {
		t.Fatalf("reused run failed: %v", err)
	}

	cfg2 := cfg
	cfg2.Seed = 99
	fresh := run(t, cfg2, mkProgs())
	assertRunsEqual(t, fresh, reused)
}

func assertRunsEqual(t *testing.T, a, b *stats.Run) {
	t.Helper()
	if a.ExecCycles != b.ExecCycles {
		t.Fatalf("ExecCycles %d vs %d", a.ExecCycles, b.ExecCycles)
	}
	if a.EventsExecuted != b.EventsExecuted {
		t.Fatalf("EventsExecuted %d vs %d", a.EventsExecuted, b.EventsExecuted)
	}
	if a.Traffic != b.Traffic {
		t.Fatalf("Traffic diverged:\n%+v\n%+v", a.Traffic, b.Traffic)
	}
	for i := range a.Cores {
		if a.Cores[i].Cycles != b.Cores[i].Cycles {
			t.Fatalf("core %d cycle breakdown diverged", i)
		}
		if a.Cores[i].Attempts != b.Cores[i].Attempts || a.Cores[i].Commits != b.Cores[i].Commits {
			t.Fatalf("core %d attempt counts diverged", i)
		}
	}
}
