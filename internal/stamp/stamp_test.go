package stamp

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

func TestWorkloadRegistry(t *testing.T) {
	ws := Workloads()
	if len(ws) != 9 {
		t.Fatalf("want 9 workloads, got %d", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		w.Validate()
		if names[w.Name] {
			t.Fatalf("duplicate workload %s", w.Name)
		}
		names[w.Name] = true
		got, err := ByName(w.Name)
		if err != nil || got.Name != w.Name {
			t.Fatalf("ByName(%s) failed: %v", w.Name, err)
		}
	}
	if _, err := ByName("bayes"); err == nil {
		t.Fatal("bayes is excluded by the paper and must not resolve")
	}
}

func TestProgramsDeterministic(t *testing.T) {
	a := Programs(Intruder(), 4, 42)
	b := Programs(Intruder(), 4, 42)
	if len(a) != 4 {
		t.Fatalf("got %d programs", len(a))
	}
	for th := range a {
		if len(a[th]) != len(b[th]) {
			t.Fatalf("thread %d program lengths differ", th)
		}
		for s := range a[th] {
			sa, sb := a[th][s], b[th][s]
			if sa.Atomic != sb.Atomic || sa.Barrier != sb.Barrier {
				t.Fatalf("thread %d section %d kind differs", th, s)
			}
			if sa.Atomic {
				oa, ob := sa.Body(1), sb.Body(1)
				if len(oa) != len(ob) {
					t.Fatalf("thread %d section %d body length differs", th, s)
				}
				for i := range oa {
					if oa[i] != ob[i] {
						t.Fatalf("thread %d section %d op %d differs", th, s, i)
					}
				}
			}
		}
	}
	// A different seed must produce a different workload.
	c := Programs(Intruder(), 4, 43)
	same := true
outer:
	for _, sec := range c[0] {
		if sec.Atomic {
			for _, seca := range a[0] {
				if seca.Atomic {
					oa, oc := seca.Body(1), sec.Body(1)
					if len(oa) != len(oc) {
						same = false
						break outer
					}
					for i := range oa {
						if oa[i] != oc[i] {
							same = false
							break outer
						}
					}
					break outer
				}
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical first transactions")
	}
}

func TestSectionsSplitAcrossThreads(t *testing.T) {
	p := Genome()
	for _, threads := range []int{1, 2, 3, 8, 32} {
		progs := Programs(p, threads, 1)
		total := 0
		for _, pr := range progs {
			total += pr.CountAtomic()
		}
		if total != p.TotalSections {
			t.Fatalf("threads=%d: %d sections, want %d (strong scaling)",
				threads, total, p.TotalSections)
		}
	}
}

func TestStaticBodyStableAcrossAttempts(t *testing.T) {
	progs := Programs(Intruder(), 2, 5)
	for _, sec := range progs[0] {
		if !sec.Atomic {
			continue
		}
		a1 := sec.Body(1)
		a2 := sec.Body(2)
		if len(a1) != len(a2) {
			t.Fatal("static body changed across attempts")
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatal("static body op differs across attempts")
			}
		}
		break
	}
}

func TestRegeneratedBodyVariesAcrossAttempts(t *testing.T) {
	progs := Programs(Labyrinth(), 2, 5)
	varied := false
	for _, sec := range progs[0] {
		if !sec.Atomic {
			continue
		}
		a1 := sec.Body(1)
		a2 := sec.Body(2)
		if len(a1) != len(a2) {
			varied = true
			break
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				varied = true
				break
			}
		}
		if varied {
			break
		}
	}
	if !varied {
		t.Fatal("labyrinth bodies identical across attempts; rerouting not modeled")
	}
}

func TestLabyrinthWritesContiguousPath(t *testing.T) {
	progs := Programs(Labyrinth(), 1, 3)
	for _, sec := range progs[0] {
		if !sec.Atomic {
			continue
		}
		ops := sec.Body(1)
		var writes []mem.Line
		for _, op := range ops {
			if op.Kind == cpu.OpWrite {
				writes = append(writes, op.Line)
			}
		}
		if len(writes) < Labyrinth().PathLength/2 {
			t.Fatalf("path too short: %d writes", len(writes))
		}
		contiguous := 0
		for i := 1; i < len(writes); i++ {
			if writes[i] == writes[i-1]+1 {
				contiguous++
			}
		}
		if contiguous < len(writes)/2 {
			t.Fatalf("labyrinth path not contiguous: %d/%d steps", contiguous, len(writes))
		}
		return
	}
	t.Fatal("no atomic section found")
}

func TestYadaFaultsPersistAcrossAttempts(t *testing.T) {
	progs := Programs(Yada(), 1, 11)
	faultySections := 0
	persistent := 0
	for _, sec := range progs[0] {
		if !sec.Atomic {
			continue
		}
		hasFault := func(ops []cpu.Op) bool {
			for _, op := range ops {
				if op.Kind == cpu.OpFault {
					return true
				}
			}
			return false
		}
		if !hasFault(sec.Body(1)) {
			continue
		}
		faultySections++
		// A faulty section should usually keep faulting on retry.
		again := 0
		for attempt := 2; attempt <= 6; attempt++ {
			if hasFault(sec.Body(attempt)) {
				again++
			}
		}
		if again >= 3 {
			persistent++
		}
	}
	if faultySections == 0 {
		t.Fatal("yada generated no faulting sections")
	}
	if persistent*2 < faultySections {
		t.Fatalf("faults not persistent: %d/%d sections", persistent, faultySections)
	}
}

func TestProfileValidation(t *testing.T) {
	bad := Profile{Name: "x", TotalSections: 10} // no regions
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bad.Validate()
}

func TestBarriersBalancedAcrossThreads(t *testing.T) {
	p := Kmeans() // BarrierEvery > 0
	progs := Programs(p, 4, 1)
	count := func(pr cpu.Program) int {
		n := 0
		for _, s := range pr {
			if s.Barrier {
				n++
			}
		}
		return n
	}
	want := count(progs[0])
	for th, pr := range progs {
		if count(pr) != want {
			t.Fatalf("thread %d has %d barriers, thread 0 has %d (deadlock)", th, count(pr), want)
		}
	}
}
