package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestGeometry(t *testing.T) {
	a := NewArray(32*1024, 4) // the paper's L1
	if a.Lines() != 512 || a.Sets() != 128 || a.Ways() != 4 {
		t.Fatalf("geometry: lines=%d sets=%d ways=%d", a.Lines(), a.Sets(), a.Ways())
	}
	b := NewArray(8*1024, 4) // small-cache config
	if b.Lines() != 128 || b.Sets() != 32 {
		t.Fatalf("small geometry: lines=%d sets=%d", b.Lines(), b.Sets())
	}
}

func TestInstallLookup(t *testing.T) {
	a := NewArray(4096, 4)
	l := mem.Line(77)
	v := a.Victim(l, nil)
	if v == nil || v.State != Invalid {
		t.Fatal("fresh array should offer an Invalid victim")
	}
	a.Install(v, l, Shared)
	got := a.Lookup(l)
	if got == nil || got.State != Shared || got.Line != l {
		t.Fatalf("Lookup after Install = %+v", got)
	}
	if a.Lookup(mem.Line(78)) != nil {
		t.Fatal("Lookup of absent line should be nil")
	}
}

func TestLRUEviction(t *testing.T) {
	a := NewArray(1024, 4) // 4 sets, 4 ways
	set0 := func(i int) mem.Line { return mem.Line(i * a.Sets()) }
	for i := 0; i < 4; i++ {
		e := a.Victim(set0(i), nil)
		a.Install(e, set0(i), Modified)
	}
	a.Lookup(set0(0)) // refresh 0; LRU is now line set0(1)
	v := a.Victim(set0(4), nil)
	if v == nil || v.Line != set0(1) {
		t.Fatalf("victim = %+v, want line %d", v, set0(1))
	}
}

func TestVictimAvoidsTransactional(t *testing.T) {
	a := NewArray(1024, 4)
	ln := func(i int) mem.Line { return mem.Line(i * a.Sets()) }
	for i := 0; i < 4; i++ {
		e := a.Victim(ln(i), nil)
		a.Install(e, ln(i), Modified)
		if i < 3 {
			e.TxWrite = true
		}
	}
	avoidTx := func(e *Entry) bool { return e.Tx() }
	v := a.Victim(ln(5), avoidTx)
	if v == nil || v.Line != ln(3) {
		t.Fatalf("victim should be the only non-tx line, got %+v", v)
	}
	// All ways transactional -> overflow (nil).
	a.Lookup(ln(3)).TxRead = true
	if v := a.Victim(ln(5), avoidTx); v != nil {
		t.Fatalf("expected overflow (nil victim), got %+v", v)
	}
	// AnyVictim still finds one.
	if v := a.AnyVictim(ln(5)); v == nil {
		t.Fatal("AnyVictim returned nil")
	}
}

func TestVictimSkipsTransient(t *testing.T) {
	a := NewArray(1024, 4)
	ln := func(i int) mem.Line { return mem.Line(i * a.Sets()) }
	for i := 0; i < 4; i++ {
		e := a.Victim(ln(i), nil)
		st := ItoS
		if i == 2 {
			st = Shared
		}
		a.Install(e, ln(i), st)
	}
	v := a.Victim(ln(9), nil)
	if v == nil || v.Line != ln(2) {
		t.Fatalf("victim must skip transient entries, got %+v", v)
	}
}

func TestClearTxAbortDropsWrites(t *testing.T) {
	a := NewArray(4096, 4)
	for i := 0; i < 6; i++ {
		l := mem.Line(i)
		e := a.Victim(l, nil)
		a.Install(e, l, Modified)
		if i%2 == 0 {
			e.TxWrite = true
		} else {
			e.TxRead = true
		}
	}
	a.ClearTx(true)
	// The write set (lines 0, 2, 4) is dropped.
	for _, l := range []mem.Line{0, 2, 4} {
		if e := a.Peek(l); e != nil {
			t.Fatalf("write-set line %d still present: %+v", l, e)
		}
	}
	// The read set (lines 1, 3, 5) survives, its bits cleared.
	for _, l := range []mem.Line{1, 3, 5} {
		if e := a.Lookup(l); e == nil || e.State != Modified || e.Tx() {
			t.Fatalf("read-set line %d mishandled: %+v", l, e)
		}
	}
	for i := range a.entries {
		if a.entries[i].Tx() {
			t.Fatalf("entry %d keeps its tx bits: %+v", i, a.entries[i])
		}
	}
}

func TestClearTxCommitKeepsWrites(t *testing.T) {
	a := NewArray(4096, 4)
	l := mem.Line(5)
	e := a.Victim(l, nil)
	a.Install(e, l, Modified)
	e.TxWrite = true
	a.ClearTx(false)
	if e := a.Lookup(l); e == nil || e.State != Modified || e.Tx() {
		t.Fatalf("committed line mishandled: %+v", e)
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	a := NewArray(1024, 4)
	ln := func(i int) mem.Line { return mem.Line(i * a.Sets()) }
	for i := 0; i < 4; i++ {
		a.Install(a.Victim(ln(i), nil), ln(i), Shared)
	}
	a.Peek(ln(0)) // must not refresh
	v := a.Victim(ln(4), nil)
	if v.Line != ln(0) {
		t.Fatalf("Peek perturbed LRU: victim %+v", v)
	}
}

func TestSetMappingProperty(t *testing.T) {
	a := NewArray(32*1024, 4)
	if err := quick.Check(func(x uint64) bool {
		l := mem.Line(x)
		s := a.SetOf(l)
		return s >= 0 && s < a.Sets()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M",
		ItoS: "I->S", ItoM: "I->M", StoM: "S->M",
	} {
		if st.String() != want {
			t.Fatalf("String(%d) = %q", st, st.String())
		}
	}
	if !Shared.Valid() || Invalid.Valid() || ItoS.Valid() {
		t.Fatal("Valid() wrong")
	}
	if !ItoM.Transient() || Modified.Transient() {
		t.Fatal("Transient() wrong")
	}
}

func TestForEachVisitsAll(t *testing.T) {
	a := NewArray(4096, 4)
	for i := 0; i < 10; i++ {
		l := mem.Line(i)
		a.Install(a.Victim(l, nil), l, Exclusive)
	}
	n := 0
	a.ForEach(func(e *Entry) { n++ })
	if n != 10 {
		t.Fatalf("ForEach visited %d, want 10", n)
	}
}
