package htm

import (
	"math/rand"
	"sort"
	"testing"
)

// sparseCores is a deliberately naive sparse model (sorted core list) the
// dense word-based CoreSet is differentially tested against: both must
// agree on every operation over randomized add/drop/iterate sequences, and
// CoreSet's iteration must be strictly ascending like the sorted model's.
type sparseCores map[int]bool

func (s sparseCores) ordered() []int {
	out := make([]int, 0, len(s))
	for c := range s {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

func collect(s *CoreSet) []int {
	var out []int
	for c, ok := s.Next(-1); ok; c, ok = s.Next(c) {
		out = append(out, c)
	}
	return out
}

func TestCoreSetDifferential(t *testing.T) {
	for _, cores := range []int{32, 64, 65, 128, 1024} {
		rng := rand.New(rand.NewSource(int64(cores))) // deterministic
		var dense CoreSet
		sparse := sparseCores{}
		for op := 0; op < 4000; op++ {
			c := rng.Intn(cores)
			switch rng.Intn(4) {
			case 0, 1: // bias toward adds so the set fills up
				dense.Add(c)
				sparse[c] = true
			case 2:
				dense.Drop(c)
				delete(sparse, c)
			case 3:
				dense.Clear()
				for k := range sparse {
					delete(sparse, k)
				}
			}
			if dense.Contains(c) != sparse[c] {
				t.Fatalf("cores=%d op=%d: Contains(%d) = %v, sparse says %v",
					cores, op, c, dense.Contains(c), sparse[c])
			}
			if dense.Count() != len(sparse) {
				t.Fatalf("cores=%d op=%d: Count = %d, sparse says %d",
					cores, op, dense.Count(), len(sparse))
			}
			// Full iteration agreement + strictly ascending order.
			got := collect(&dense)
			want := sparse.ordered()
			if len(got) != len(want) {
				t.Fatalf("cores=%d op=%d: iterate %v, want %v", cores, op, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cores=%d op=%d: iterate %v, want %v", cores, op, got, want)
				}
				if i > 0 && got[i] <= got[i-1] {
					t.Fatalf("cores=%d op=%d: iteration not strictly ascending: %v", cores, op, got)
				}
			}
			// AnyExcept against the model.
			probe := rng.Intn(cores)
			wantAE := false
			for k := range sparse {
				if k != probe {
					wantAE = true
					break
				}
			}
			if dense.AnyExcept(probe) != wantAE {
				t.Fatalf("cores=%d op=%d: AnyExcept(%d) = %v, sparse says %v",
					cores, op, probe, dense.AnyExcept(probe), wantAE)
			}
		}
	}
}

func TestCoreSetSingleWordStaysInline(t *testing.T) {
	// Cores below 64 must never allocate extension words: the paper's
	// 32-core machine keeps the exact old raw-uint64 representation.
	var s CoreSet
	for c := 0; c < 64; c++ {
		s.Add(c)
	}
	if s.ext != nil {
		t.Fatal("cores < 64 must stay in the inline word")
	}
	if s.Count() != 64 || !s.AnyExcept(13) {
		t.Fatal("inline word bookkeeping wrong")
	}
	s.Add(64)
	if len(s.ext) != 1 {
		t.Fatalf("core 64 should spill to one extension word, got %d", len(s.ext))
	}
}

func TestCoreSetClearKeepsBacking(t *testing.T) {
	var s CoreSet
	s.Add(900)
	ext := &s.ext[0]
	s.Clear()
	if s.Count() != 0 {
		t.Fatal("Clear must empty the set")
	}
	s.Add(900)
	if &s.ext[0] != ext {
		t.Fatal("Clear must retain the extension backing")
	}
}
