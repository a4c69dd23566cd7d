package htm

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestSignatureNoFalseNegatives(t *testing.T) {
	s := NewSignature(2048)
	var added []mem.Line
	for i := 0; i < 200; i++ {
		l := mem.Line(i * 97)
		s.Add(l)
		added = append(added, l)
	}
	for _, l := range added {
		if !s.MayContain(l) {
			t.Fatalf("false negative for line %d", l)
		}
	}
	if s.Adds() != 200 {
		t.Fatalf("Adds = %d", s.Adds())
	}
}

func TestSignatureFalsePositiveRate(t *testing.T) {
	s := NewSignature(2048)
	for i := 0; i < 100; i++ {
		s.Add(mem.Line(i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if s.MayContain(mem.Line(1_000_000 + i)) {
			fp++
		}
	}
	// With 100 inserts, 2 hashes, 2048 bits: fill ~9.3%, fp ~ 0.9%.
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestSignatureClear(t *testing.T) {
	s := NewSignature(256)
	s.Add(5)
	if s.Empty() {
		t.Fatal("not empty after Add")
	}
	s.Clear()
	if !s.Empty() || s.MayContain(5) || s.PopCount() != 0 {
		t.Fatal("Clear incomplete")
	}
}

func TestSignatureMinimumSize(t *testing.T) {
	s := NewSignature(1) // must round up, not crash
	s.Add(123)
	if !s.MayContain(123) {
		t.Fatal("tiny signature lost a member")
	}
}

func TestSignatureQuickMembership(t *testing.T) {
	if err := quick.Check(func(lines []uint32) bool {
		s := NewSignature(4096)
		for _, l := range lines {
			s.Add(mem.Line(l))
		}
		for _, l := range lines {
			if !s.MayContain(mem.Line(l)) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWakeSetDrain(t *testing.T) {
	var w WakeSet
	if w.Count() != 0 {
		t.Fatal("zero value should be empty")
	}
	w.Add(3)
	w.Add(31)
	w.Add(3) // idempotent
	if !w.Contains(3) || !w.Contains(31) || w.Contains(4) {
		t.Fatal("Contains wrong")
	}
	var got []int
	w.Drain(func(c int) { got = append(got, c) })
	if len(got) != 2 || got[0] != 3 || got[1] != 31 {
		t.Fatalf("Drain = %v", got)
	}
	if w.Count() != 0 {
		t.Fatal("Drain must clear")
	}
}

func TestWakeSetRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative core")
		}
	}()
	var w WakeSet
	w.Add(-1)
}

func TestWakeSetBeyond64(t *testing.T) {
	var w WakeSet
	for _, c := range []int{900, 63, 64, 0, 511, 127} {
		w.Add(c)
	}
	if !w.Contains(900) || !w.Contains(64) || w.Contains(65) || w.Contains(899) {
		t.Fatal("Contains wrong above 64")
	}
	var got []int
	w.Drain(func(c int) { got = append(got, c) })
	want := []int{0, 63, 64, 127, 511, 900}
	if len(got) != len(want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain = %v, want %v (ascending)", got, want)
		}
	}
	if w.Count() != 0 {
		t.Fatal("Drain must clear extension words")
	}
	// Re-adds during a drain are kept for the next drain, not woken twice.
	w.Add(70)
	var first []int
	w.Drain(func(c int) { w.Add(c); first = append(first, c) })
	if len(first) != 1 || first[0] != 70 {
		t.Fatalf("first drain = %v", first)
	}
	if !w.Contains(70) {
		t.Fatal("re-added core must survive the drain")
	}
}
