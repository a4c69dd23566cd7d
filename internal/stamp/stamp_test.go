package stamp

import (
	"hash/fnv"
	"sync"
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
		if a[th].Len() != b[th].Len() {
			t.Fatalf("thread %d program lengths differ", th)
		}
		for s := 0; s < a[th].Len(); s++ {
			if a[th].Kind(s) != b[th].Kind(s) {
				t.Fatalf("thread %d section %d kind differs", th, s)
			}
			if a[th].Kind(s).Atomic() {
				oa, ob := a[th].AppendOps(nil, s, 1), b[th].AppendOps(nil, s, 1)
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
	for s := 0; s < c[0].Len(); s++ {
		if c[0].Kind(s).Atomic() {
			for sa := 0; sa < a[0].Len(); sa++ {
				if a[0].Kind(sa).Atomic() {
					oa, oc := a[0].AppendOps(nil, sa, 1), c[0].AppendOps(nil, s, 1)
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
			total += cpu.CountAtomic(pr)
		}
		if total != p.TotalSections {
			t.Fatalf("threads=%d: %d sections, want %d (strong scaling)",
				threads, total, p.TotalSections)
		}
	}
}

func TestStaticBodyStableAcrossAttempts(t *testing.T) {
	prog := Programs(Intruder(), 2, 5)[0]
	for s := 0; s < prog.Len(); s++ {
		if prog.Kind(s) != cpu.SecAtomic {
			continue
		}
		a1 := prog.AppendOps(nil, s, 1)
		a2 := prog.AppendOps(nil, s, 2)
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
	prog := Programs(Labyrinth(), 2, 5)[0]
	varied := false
	for s := 0; s < prog.Len(); s++ {
		if prog.Kind(s) != cpu.SecDynamic {
			continue
		}
		a1 := prog.AppendOps(nil, s, 1)
		a2 := prog.AppendOps(nil, s, 2)
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
	prog := Programs(Labyrinth(), 1, 3)[0]
	for s := 0; s < prog.Len(); s++ {
		if !prog.Kind(s).Atomic() {
			continue
		}
		ops := prog.AppendOps(nil, s, 1)
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
	prog := Programs(Yada(), 1, 11)[0]
	faultySections := 0
	persistent := 0
	for s := 0; s < prog.Len(); s++ {
		if !prog.Kind(s).Atomic() {
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
		if !hasFault(prog.AppendOps(nil, s, 1)) {
			continue
		}
		faultySections++
		// A faulty section should usually keep faulting on retry.
		again := 0
		for attempt := 2; attempt <= 6; attempt++ {
			if hasFault(prog.AppendOps(nil, s, attempt)) {
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
		for s := 0; s < pr.Len(); s++ {
			if pr.Kind(s) == cpu.SecBarrier {
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

// TestProgramsAllocateConstantPerThread pins that Programs stores no ops:
// it allocates two objects (the per-thread generators and the slice of
// programs) whatever the thread and section counts are.
func TestProgramsAllocateConstantPerThread(t *testing.T) {
	long := Intruder()
	long.TotalSections *= 16
	for _, threads := range []int{2, 8, 32} {
		base := testing.AllocsPerRun(20, func() { Programs(Intruder(), threads, 1) })
		more := testing.AllocsPerRun(20, func() { Programs(long, threads, 1) })
		if base > 2 || more != base {
			t.Errorf("threads=%d: %.0f allocations, %.0f with 16x the sections; want at most 2 for both",
				threads, base, more)
		}
	}
}

// TestProgramsShareable pins that a Programs result holds no mutable
// state: goroutines drawing every section of the same programs at once
// (as machines sharing them do) all draw the same ops. Run it under -race.
func TestProgramsShareable(t *testing.T) {
	progs := Programs(Yada(), 4, 1)
	draw := func() uint64 {
		h := fnv.New64a()
		var ops []cpu.Op
		for _, p := range progs {
			for s := 0; s < p.Len(); s++ {
				for a := 1; a <= 3; a++ {
					ops = p.AppendOps(ops[:0], s, a)
					for _, op := range ops {
						h.Write([]byte{byte(op.Kind), byte(op.Line), byte(op.Line >> 8), byte(op.N)})
					}
				}
			}
		}
		return h.Sum64()
	}
	want := draw()
	var wg sync.WaitGroup
	got := make([]uint64, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = draw()
		}()
	}
	wg.Wait()
	for i, h := range got {
		if h != want {
			t.Errorf("goroutine %d drew %#x, a lone draw %#x", i, h, want)
		}
	}
}
