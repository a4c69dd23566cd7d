// Package cache implements the set-associative data arrays used for both
// the private L1s and the shared LLC banks, including the transactional
// read/write metadata bits that best-effort HTM keeps per L1 line and the
// victim-selection policy that prefers to evict non-transactional lines.
package cache

import (
	"fmt"

	"repro/internal/mem"
)

// State is the coherence state of a line as seen by its local controller.
// The protocol package defines the transitions; the array only stores it.
type State uint8

// Stable and transient L1/LLC line states. The array package defines them
// so both controllers can share the storage type.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	// Transient requester-side states (request in flight).
	ItoS // GetS issued, waiting for data
	ItoM // GetM issued from Invalid, waiting for data
	StoM // GetM issued from Shared (upgrade), waiting for data
)

// Valid reports whether the state holds a readable copy.
func (s State) Valid() bool { return s == Shared || s == Exclusive || s == Modified }

// Transient reports whether a request is in flight for the line.
func (s State) Transient() bool { return s == ItoS || s == ItoM || s == StoM }

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case ItoS:
		return "I->S"
	case ItoM:
		return "I->M"
	case StoM:
		return "S->M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Entry is one way of one set.
type Entry struct {
	Line  mem.Line
	State State
	Dirty bool
	// Transactional metadata (L1 only): the line is in the running
	// transaction's read and/or write set.
	TxRead  bool
	TxWrite bool
	// gen is the array generation this entry was written under. An entry
	// whose generation trails the array's reads as Invalid, which is how
	// Array.Reset invalidates every line without touching the backing
	// (it fills the struct's existing padding, so Entry stays 24 bytes).
	gen uint32
	// lru is a per-array timestamp for least-recently-used replacement.
	lru uint64
}

// Tx reports whether the line belongs to the current transaction's
// read or write set.
func (e *Entry) Tx() bool { return e.TxRead || e.TxWrite }

// Array is a set-associative cache data array with LRU replacement.
type Array struct {
	sets    int
	ways    int
	entries []Entry // sets*ways, row-major by set
	clock   uint64
	gen     uint32 // current generation; entries with e.gen != gen are stale
}

// Arena bump-allocates Entry backings so every array of one machine comes
// out of a single allocation (the machine-construction arena). A nil Arena
// — or one that runs out — falls back to private allocations, so callers
// never need to size it exactly.
type Arena struct {
	backing []Entry
}

// NewArena preallocates backing for the given total line count.
func NewArena(lines int) *Arena { return &Arena{backing: make([]Entry, lines)} }

// alloc carves n entries off the arena (full-capacity slice so appends can
// never bleed into a neighbour's backing).
func (ar *Arena) alloc(n int) []Entry {
	if ar == nil || len(ar.backing) < n {
		return make([]Entry, n)
	}
	s := ar.backing[:n:n]
	ar.backing = ar.backing[n:]
	return s
}

// LinesFor returns the entry count an array of sizeBytes occupies — the
// unit Arena sizing is computed in.
func LinesFor(sizeBytes int) int { return sizeBytes / mem.LineBytes }

// NewArray builds an array of the given total size in bytes with the given
// associativity (line size fixed at 64 B). Sizes must divide evenly.
func NewArray(sizeBytes, ways int) *Array { return NewArrayIn(nil, sizeBytes, ways) }

// NewArrayIn is NewArray with the entry backing carved from the arena.
func NewArrayIn(ar *Arena, sizeBytes, ways int) *Array {
	lines := sizeBytes / mem.LineBytes
	if lines <= 0 || ways <= 0 || lines%ways != 0 {
		panic(fmt.Sprintf("cache: invalid geometry size=%d ways=%d", sizeBytes, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	return &Array{sets: sets, ways: ways, entries: ar.alloc(lines)}
}

// Reset invalidates every line in place by bumping the array generation:
// stale entries read as Invalid everywhere and are normalized lazily when
// Victim hands one out. O(1) in array size; the uint32 wrap (once per 2^32
// resets) falls back to rewriting the backing so old generations can never
// alias the new one.
func (a *Array) Reset() {
	a.gen++
	if a.gen == 0 {
		for i := range a.entries {
			a.entries[i] = Entry{}
		}
	}
	a.clock = 0
}

// Pristine reports whether the array holds no live line and its LRU clock
// is at its initial value — the state a fresh array and a Reset array
// share. Used by the machine-reset deep-state walk.
func (a *Array) Pristine() bool {
	if a.clock != 0 {
		return false
	}
	for i := range a.entries {
		e := &a.entries[i]
		if e.State != Invalid && e.gen == a.gen {
			return false
		}
	}
	return true
}

// SameShape reports whether two arrays have identical geometry.
func (a *Array) SameShape(b *Array) bool {
	return a.sets == b.sets && a.ways == b.ways
}

// Sets returns the number of sets; Ways the associativity; Lines capacity.
func (a *Array) Sets() int  { return a.sets }
func (a *Array) Ways() int  { return a.ways }
func (a *Array) Lines() int { return a.sets * a.ways }

// SetOf returns the set index a line maps to.
func (a *Array) SetOf(l mem.Line) int { return int(uint64(l) & uint64(a.sets-1)) }

func (a *Array) set(idx int) []Entry { return a.entries[idx*a.ways : (idx+1)*a.ways] }

// Lookup returns the entry holding the line (in any non-Invalid state,
// including transients), or nil. A hit refreshes LRU.
func (a *Array) Lookup(l mem.Line) *Entry {
	s := a.set(a.SetOf(l))
	for i := range s {
		// Tag compare first: ways that miss (the common case) fall through
		// on a single predictable uint64 compare.
		if s[i].Line == l && s[i].State != Invalid && s[i].gen == a.gen {
			a.clock++
			s[i].lru = a.clock
			return &s[i]
		}
	}
	return nil
}

// Peek is Lookup without the LRU refresh (for external probes that must not
// perturb replacement decisions).
func (a *Array) Peek(l mem.Line) *Entry {
	s := a.set(a.SetOf(l))
	for i := range s {
		if s[i].Line == l && s[i].State != Invalid && s[i].gen == a.gen {
			return &s[i]
		}
	}
	return nil
}

// Victim chooses an entry in the line's set to allocate into. Preference
// order: an Invalid way, then the LRU way among entries for which avoid
// returns false, then — only if every way is to be avoided — nil, signalling
// that allocation is impossible without violating the avoid predicate
// (e.g. every way holds transactional data: a capacity overflow).
// Entries in transient states are never victims.
func (a *Array) Victim(l mem.Line, avoid func(*Entry) bool) *Entry {
	s := a.set(a.SetOf(l))
	var best *Entry
	for i := range s {
		e := &s[i]
		if e.gen != a.gen {
			// Stale generation: logically Invalid. Normalize before handing
			// it out so callers that inspect the victim's fields (demotion,
			// eviction) see a genuinely empty way.
			*e = Entry{gen: a.gen}
			return e
		}
		if e.State == Invalid {
			return e
		}
		if e.State.Transient() {
			continue
		}
		if avoid != nil && avoid(e) {
			continue
		}
		if best == nil || e.lru < best.lru {
			best = e
		}
	}
	return best
}

// AnyVictim is Victim with no avoid predicate but still skipping transient
// entries; used when an overflow forces eviction of transactional data.
func (a *Array) AnyVictim(l mem.Line) *Entry { return a.Victim(l, nil) }

// Install writes a new line into the entry (the caller must have evicted
// the previous occupant) and refreshes LRU.
func (a *Array) Install(e *Entry, l mem.Line, st State) {
	a.clock++
	*e = Entry{Line: l, State: st, lru: a.clock, gen: a.gen}
}

// ForEach visits every non-Invalid entry. The visitor must not install or
// evict lines.
func (a *Array) ForEach(fn func(*Entry)) {
	for i := range a.entries {
		if a.entries[i].State != Invalid && a.entries[i].gen == a.gen {
			fn(&a.entries[i])
		}
	}
}

// ClearTx clears all transactional metadata; invalidateWrites additionally
// drops speculatively written (TxWrite) lines, which is what an abort does
// under L1-based eager version management. The controller needs no list of
// the dropped lines: the directory learns of them lazily, through the NACKs
// that answer later forwards.
func (a *Array) ClearTx(invalidateWrites bool) {
	for i := range a.entries {
		e := &a.entries[i]
		// Untouched entries (the vast majority each commit) fall through
		// without dirtying their cache line.
		if !e.TxRead && !e.TxWrite {
			continue
		}
		if e.State == Invalid || e.gen != a.gen {
			continue
		}
		if invalidateWrites && e.TxWrite {
			e.State = Invalid
			e.Dirty = false
		}
		e.TxRead = false
		e.TxWrite = false
	}
}
