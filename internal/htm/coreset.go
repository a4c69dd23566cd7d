package htm

import "math/bits"

// CoreSet is a set of core ids: the directory's sharer set per line and the
// wake-up tables of the recovery mechanism (WakeSet) are both one. Up to 64
// cores it is exactly a raw uint64 bitset — one inline word, zero
// allocations, bit-for-bit the paper's 32-core behavior — and above 64 it
// spills to extension words. Clear keeps the extension backing, so a set
// reused across directory lines, wake rounds or machine resets allocates
// once per owner lifetime on the 64–1024-core machines (DESIGN.md §13).
//
// Iteration (Next) is strictly ascending by core id on every
// representation; fanout and wake ordering — and therefore the bit-for-bit
// replay guarantee — depend on it, and TestCoreSetDifferential pins it.
type CoreSet struct {
	w0  uint64
	ext []uint64 // words 1..: cores 64..; nil on ≤64-core machines
}

// Add adds a core.
func (s *CoreSet) Add(c int) {
	wi := c >> 6
	if wi == 0 {
		s.w0 |= 1 << uint(c&63)
		return
	}
	for len(s.ext) < wi {
		s.ext = append(s.ext, 0)
	}
	s.ext[wi-1] |= 1 << uint(c&63)
}

// Drop removes a core (no-op if absent).
func (s *CoreSet) Drop(c int) {
	wi := c >> 6
	if wi == 0 {
		s.w0 &^= 1 << uint(c&63)
		return
	}
	if wi-1 < len(s.ext) {
		s.ext[wi-1] &^= 1 << uint(c&63)
	}
}

// Contains reports whether the core is in the set.
func (s *CoreSet) Contains(c int) bool {
	wi := c >> 6
	if wi == 0 {
		return s.w0&(1<<uint(c&63)) != 0
	}
	return wi-1 < len(s.ext) && s.ext[wi-1]&(1<<uint(c&63)) != 0
}

// Count returns the number of cores in the set.
func (s *CoreSet) Count() int {
	n := bits.OnesCount64(s.w0)
	for _, w := range s.ext {
		n += bits.OnesCount64(w)
	}
	return n
}

// AnyExcept reports whether the set holds any core other than c — the
// directory's "GetM over other sharers" guard.
func (s *CoreSet) AnyExcept(c int) bool {
	wi := c >> 6
	if wi == 0 {
		if s.w0&^(1<<uint(c&63)) != 0 {
			return true
		}
	} else if s.w0 != 0 {
		return true
	}
	for i, w := range s.ext {
		if w == 0 {
			continue
		}
		if i+1 == wi && w&^(1<<uint(c&63)) == 0 {
			continue
		}
		return true
	}
	return false
}

// Clear removes every core, keeping the extension backing for reuse.
func (s *CoreSet) Clear() {
	s.w0 = 0
	for i := range s.ext {
		s.ext[i] = 0
	}
}

// Next returns the smallest core strictly greater than after, or ok=false
// when none remains. Start iteration with after=-1; order is strictly
// ascending. Closure-free on purpose — fanout loops run on the hot path.
func (s *CoreSet) Next(after int) (core int, ok bool) {
	from := after + 1
	if from < 0 {
		from = 0
	}
	nwords := 1 + len(s.ext)
	for wi := from >> 6; wi < nwords; wi++ {
		w := s.w0
		if wi > 0 {
			w = s.ext[wi-1]
		}
		if wi == from>>6 {
			w &^= 1<<uint(from&63) - 1
		}
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w), true
		}
	}
	return -1, false
}
