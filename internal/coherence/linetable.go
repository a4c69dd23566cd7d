package coherence

import (
	"fmt"
	"unsafe"

	"repro/internal/mem"
)

// lineTable maps lines to entries: it backs both a bank's directory
// (Bank.dir) and an L1's MSHR file (L1.mshrs). Lookups run once per message
// on the hottest simulator path, where a Go map's hash-and-bucket walk and
// bucket allocations showed up prominently in whole-run profiles, so the
// table is a flat slice probed open-addressed:
//
//   - linear probing with multiplicative (Fibonacci) hashing: populations
//     are small (a handful of MSHRs, a bank's share of the footprint), so
//     probe chains stay short even under pathological line patterns;
//   - backward-shift deletion instead of tombstones: chains stay contiguous,
//     so lookups never degrade over a long run and never need a rehash;
//   - slots are one pointer wide: the key is the entry's own first field
//     (keyOf);
//   - the capacity doubles at half load, deterministically: the layout
//     depends only on the set of live lines.
//
// The table owns no entries: the caller allocates them and recycles what
// remove and reset hand back.
type lineTable[E any] struct {
	slots []*E
	mask  uint64
	shift uint // 64 - log2(len(slots)), for the multiplicative hash
	live  int
}

// keyOf returns an entry's line. Every entry type stores its line as its
// first field (TestLineEntriesStartWithLine), so this is one load: a key()
// method on the type parameter compiles to an indirect call per probe and
// keeps lookup from inlining, which cost about 5% of the CPU samples of a
// Fig. 7 quick sweep (2-vCPU host).
func keyOf[E any](e *E) mem.Line { return *(*mem.Line)(unsafe.Pointer(e)) }

func newLineTable[E any](capacity int) lineTable[E] {
	if capacity&(capacity-1) != 0 || capacity == 0 {
		panic(fmt.Sprintf("coherence: line table capacity %d not a power of two", capacity))
	}
	shift := uint(64)
	for c := capacity; c > 1; c >>= 1 {
		shift--
	}
	return lineTable[E]{slots: make([]*E, capacity), mask: uint64(capacity - 1), shift: shift}
}

// home returns the preferred slot of a line.
func (t *lineTable[E]) home(l mem.Line) uint64 {
	return (uint64(l) * 0x9E3779B97F4A7C15) >> t.shift
}

// lookup returns the entry for the line, or nil.
func (t *lineTable[E]) lookup(l mem.Line) *E {
	if t.live == 0 {
		return nil
	}
	for i := t.home(l); ; i = (i + 1) & t.mask {
		e := t.slots[i]
		if e == nil || keyOf(e) == l {
			return e
		}
	}
}

// insert adds a fresh entry. Inserting a line that is already present is a
// controller bug (a map would silently leak the shadowed entry).
func (t *lineTable[E]) insert(e *E) {
	if 2*(t.live+1) > len(t.slots) {
		t.grow()
	}
	l := keyOf(e)
	for i := t.home(l); ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == nil {
			t.slots[i] = e
			t.live++
			return
		}
		if keyOf(s) == l {
			panic(fmt.Sprintf("coherence: duplicate line-table insert for line %d", l))
		}
	}
}

// remove deletes the line's entry and returns it, or nil if absent.
// Backward-shift deletion: every entry after the hole that is allowed to
// move closer to its home slot does, so probe chains stay contiguous and no
// tombstones accumulate.
func (t *lineTable[E]) remove(l mem.Line) *E {
	if t.live == 0 {
		return nil
	}
	i := t.home(l)
	for {
		e := t.slots[i]
		if e == nil {
			return nil
		}
		if keyOf(e) == l {
			break
		}
		i = (i + 1) & t.mask
	}
	gone := t.slots[i]
	t.live--
	j := i
	for {
		t.slots[i] = nil
		for {
			j = (j + 1) & t.mask
			e := t.slots[j]
			if e == nil {
				return gone
			}
			// The entry at j stays put iff its home slot lies cyclically in
			// (i, j] — moving it to i would then strand it before its home.
			h := t.home(keyOf(e))
			inRange := false
			if i <= j {
				inRange = i < h && h <= j
			} else {
				inRange = i < h || h <= j
			}
			if !inRange {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// reset empties the table in place (machine reset between runs), handing
// each live entry to recycle in slot order. The slot capacity — and with it
// mask and shift — survives any growth the previous run caused: lookups are
// order-insensitive and growth is population-driven, so a reset table
// behaves exactly like a fresh one for the next run's insertion history.
func (t *lineTable[E]) reset(recycle func(*E)) {
	if t.live > 0 {
		for i, e := range t.slots {
			if e != nil {
				recycle(e)
				t.slots[i] = nil
			}
		}
	}
	t.live = 0
}

// grow doubles the table, reinserting every live entry.
func (t *lineTable[E]) grow() {
	old := t.slots
	*t = newLineTable[E](2 * len(old))
	for _, e := range old {
		if e != nil {
			t.insert(e)
		}
	}
}
