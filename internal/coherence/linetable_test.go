package coherence

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// The line table backs both the MSHR file (L1.mshrs) and the directory
// (Bank.dir); the tests name the instance they drive.

// TestMshrTableBasic exercises insert/lookup/remove including the
// not-present cases on both sides of a removal.
func TestMshrTableBasic(t *testing.T) {
	tab := newLineTable[mshr](mshrTableCap)
	if tab.lookup(7) != nil {
		t.Fatal("lookup on empty table found an entry")
	}
	if tab.remove(7) != nil {
		t.Fatal("remove on empty table returned an entry")
	}
	a, b := &mshr{line: 7}, &mshr{line: 7 + mshrTableCap}
	tab.insert(a)
	tab.insert(b)
	if tab.live != 2 {
		t.Fatalf("live = %d, want 2", tab.live)
	}
	if tab.lookup(7) != a || tab.lookup(7+mshrTableCap) != b {
		t.Fatal("lookup returned the wrong entry")
	}
	if tab.remove(7) != a || tab.lookup(7) != nil || tab.lookup(7+mshrTableCap) != b {
		t.Fatal("remove(7) disturbed the surviving entry")
	}
	if tab.remove(7) != nil {
		t.Fatal("second remove of the same line returned an entry")
	}
	if tab.live != 1 {
		t.Fatalf("live = %d, want 1", tab.live)
	}
}

// lineTableDifferential drives a long random insert/remove/lookup schedule
// against a reference map, checking every result and the live count after
// each step, then checks that reset hands back exactly the live entries.
// The table starts tiny and lines come from a small range, so it grows
// repeatedly and probe chains collide constantly, exercising backward-shift
// deletion.
func lineTableDifferential[E any](t *testing.T, entry func(mem.Line) *E) {
	rng := rand.New(rand.NewSource(42))
	tab := newLineTable[E](8)
	ref := map[mem.Line]*E{}
	for step := 0; step < 20_000; step++ {
		l := mem.Line(rng.Intn(64))
		switch op := rng.Intn(3); {
		case op == 0 && ref[l] == nil:
			e := entry(l)
			tab.insert(e)
			ref[l] = e
		case op == 1:
			if got := tab.remove(l); got != ref[l] {
				t.Fatalf("step %d: remove(%d) = %p, want %p", step, l, got, ref[l])
			}
			delete(ref, l)
		default:
			if got := tab.lookup(l); got != ref[l] {
				t.Fatalf("step %d: lookup(%d) = %p, want %p", step, l, got, ref[l])
			}
		}
		if tab.live != len(ref) {
			t.Fatalf("step %d: live = %d, want %d", step, tab.live, len(ref))
		}
	}
	// Every reference entry must still be reachable after all the shifting.
	for l, e := range ref {
		if tab.lookup(l) != e {
			t.Fatalf("final: lookup(%d) lost the entry", l)
		}
	}
	recycled := map[mem.Line]*E{}
	tab.reset(func(e *E) { recycled[keyOf(e)] = e })
	if tab.live != 0 || len(recycled) != len(ref) {
		t.Fatalf("reset: live = %d, recycled %d of %d", tab.live, len(recycled), len(ref))
	}
	for l, e := range ref {
		if recycled[l] != e || tab.lookup(l) != nil {
			t.Fatalf("reset: line %d not recycled exactly once", l)
		}
	}
}

func TestMshrTableDifferential(t *testing.T) {
	lineTableDifferential(t, func(l mem.Line) *mshr { return &mshr{line: l} })
}

func TestDirTableDifferential(t *testing.T) {
	lineTableDifferential(t, func(l mem.Line) *dirLine { return &dirLine{line: l, owner: -1} })
}

// TestLineEntriesStartWithLine pins the layout keyOf reads: every entry
// type stores its line as its first field.
func TestLineEntriesStartWithLine(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[dirLine](), reflect.TypeFor[mshr]()} {
		if f := typ.Field(0); f.Type != reflect.TypeFor[mem.Line]() || f.Offset != 0 {
			t.Errorf("%v starts with %s %v, want its line (mem.Line)", typ, f.Name, f.Type)
		}
	}
}

// TestMshrTableDupInsertPanics pins the duplicate-insert invariant: a map
// would silently leak the shadowed entry.
func TestMshrTableDupInsertPanics(t *testing.T) {
	tab := newLineTable[mshr](mshrTableCap)
	tab.insert(&mshr{line: 3})
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert did not panic")
		}
	}()
	tab.insert(&mshr{line: 3})
}

// TestMshrTableSteadyStateNoAlloc pins the point of the table: once at its
// high-water capacity, the insert/lookup/remove cycle allocates nothing
// (map inserts allocate buckets under churn).
func TestMshrTableSteadyStateNoAlloc(t *testing.T) {
	tab := newLineTable[mshr](mshrTableCap)
	entries := make([]*mshr, 16)
	for i := range entries {
		entries[i] = &mshr{line: mem.Line(i * 37)}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, ms := range entries {
			tab.insert(ms)
		}
		for _, ms := range entries {
			if tab.lookup(ms.line) != ms {
				t.Fatal("lookup miss")
			}
		}
		for _, ms := range entries {
			tab.remove(ms.line)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state table churn allocates %.0f per cycle, want 0", allocs)
	}
}

// TestMshrWaitersBackingReused pins the waiter-array pooling: an MSHR
// recycled through the free list keeps its waiters backing array, so
// re-parking waiters on it does not allocate once capacity has grown.
func TestMshrWaitersBackingReused(t *testing.T) {
	_, sys, _ := tsys(t, baseCfg())
	l1 := sys.L1s[0]
	w := func() {}
	// Warm one pooled MSHR up to 8 waiter slots.
	ms := l1.newMshr()
	for i := 0; i < 8; i++ {
		ms.waiters = append(ms.waiters, w)
	}
	l1.freeMshr(ms)
	allocs := testing.AllocsPerRun(100, func() {
		m := l1.newMshr()
		for i := 0; i < 8; i++ {
			m.waiters = append(m.waiters, w)
		}
		l1.freeMshr(m)
	})
	if allocs != 0 {
		t.Fatalf("recycled MSHR waiter append allocates %.0f per cycle, want 0", allocs)
	}
}
