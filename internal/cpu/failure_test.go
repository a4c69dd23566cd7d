package cpu

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

// TestCycleLimitProducesDiagnostics: a run that exceeds its cycle budget
// must fail with the machine-state dump attached (the paper's gem5
// equivalent would hang; we diagnose).
func TestCycleLimitProducesDiagnostics(t *testing.T) {
	progs := counterProgram(4, 500, 4096)
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM,
		Threads: 4, Seed: 1, Limit: 2000} // far too small
	m := NewMachine(cfg, "t", "limit", progs)
	_, err := m.Run()
	if err == nil {
		t.Fatal("expected a limit error")
	}
	msg := err.Error()
	for _, frag := range []string{"machine state", "core  0", "lock:"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("diagnostics missing %q:\n%s", frag, msg)
		}
	}
}

// TestBarrierMismatchDeadlockDetected: a program where one thread skips
// the barrier deadlocks; the machine must report it rather than hang.
func TestBarrierMismatchDeadlockDetected(t *testing.T) {
	progs := []Program{
		Sections{BarrierSection()},
		Sections{Plain([]Op{Compute(10)})}, // never arrives
	}
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 2, Seed: 1}
	m := NewMachine(cfg, "t", "deadlock", progs)
	_, err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "never finished") {
		t.Fatalf("deadlock not detected: %v", err)
	}
}

// TestMSHRWaitersCoalesce: two accesses to the same missing line from one
// core (the second issued by a restarted attempt) must coalesce onto one
// MSHR and both complete.
func TestMSHRWaitersCoalesce(t *testing.T) {
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 1, Seed: 1}
	progs := []Program{Sections{
		// Two back-to-back atomic sections touching the same cold line:
		// the L1 dedups by line under the hood.
		AtomicStatic([]Op{Read(9999), Write(9999)}),
		AtomicStatic([]Op{Read(9999)}),
	}}
	m := NewMachine(cfg, "t", "mshr", progs)
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Sections() != 2 {
		t.Fatalf("sections = %d", r.Sections())
	}
}

// TestTrafficCollected: the run must aggregate subsystem counters.
func TestTrafficCollected(t *testing.T) {
	cfg := Config{Machine: smallParams(), HTM: lockillerCfg(), Sync: SysHTM, Threads: 4, Seed: 2}
	r := run(t, cfg, counterProgram(4, 30, 4096))
	tr := r.Traffic
	if tr.Messages == 0 || tr.L1Hits == 0 || tr.L1Misses == 0 || tr.DirRequests == 0 {
		t.Fatalf("traffic not collected: %+v", tr)
	}
	if tr.L1MissRate() <= 0 || tr.L1MissRate() >= 1 {
		t.Fatalf("miss rate = %v", tr.L1MissRate())
	}
	var sb strings.Builder
	tr.Render(&sb)
	if !strings.Contains(sb.String(), "traffic:") {
		t.Fatal("traffic render empty")
	}
}

// TestDumpStateFields spot-checks the diagnostic snapshot.
func TestDumpStateFields(t *testing.T) {
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 2, Seed: 1}
	m := NewMachine(cfg, "t", "dump", counterProgram(2, 5, mem.Line(4096)))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	dump := m.DumpState()
	for _, frag := range []string{"core  0", "core  1", "section", "lock: held=false"} {
		if !strings.Contains(dump, frag) {
			t.Fatalf("dump missing %q:\n%s", frag, dump)
		}
	}
}
