// Package trace provides gem5-DPRINTF-style event tracing for the
// simulator: protocol messages, conflict arbitration decisions,
// transaction lifecycle events, and HTMLock activity, with category
// filtering and a bounded ring buffer so tracing long runs stays cheap.
//
// Tracing is opt-in: a nil *Tracer disables all recording, and every hook
// site is guarded, so the zero-cost path stays zero-cost.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/mem"
)

// Category classifies events for filtering.
type Category uint8

const (
	// CatProto: coherence requests, fills, forwards, NACKs.
	CatProto Category = iota
	// CatConflict: conflict detection and arbitration outcomes.
	CatConflict
	// CatTx: transaction begin/commit/abort and fallback decisions.
	CatTx
	// CatHTMLock: TL/STL entry, signature spills, LLC arbitration.
	CatHTMLock
	// CatLock: fallback-lock acquire/release/handover.
	CatLock
	// CatNoC: interconnect activity — link enqueue, serialization stalls,
	// and message delivery.
	CatNoC
	numCategories
)

func (c Category) String() string {
	names := [...]string{"proto", "conflict", "tx", "htmlock", "lock", "noc"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// ParseCategories parses a comma-separated filter list ("tx,conflict").
// An empty string enables every category.
func ParseCategories(s string) (map[Category]bool, error) {
	out := make(map[Category]bool)
	if s == "" {
		for c := Category(0); c < numCategories; c++ {
			out[c] = true
		}
		return out, nil
	}
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for c := Category(0); c < numCategories; c++ {
			if c.String() == name {
				out[c] = true
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("trace: unknown category %q", name)
		}
	}
	return out, nil
}

// Event is one recorded occurrence.
type Event struct {
	Cycle uint64
	Core  int // acting core or bank (-1 for system-wide)
	Cat   Category
	Line  mem.Line // 0 when not line-addressed
	What  string
}

func (e Event) String() string {
	if e.Line != 0 {
		return fmt.Sprintf("%10d c%02d [%s] line=%d %s", e.Cycle, e.Core, e.Cat, e.Line, e.What)
	}
	return fmt.Sprintf("%10d c%02d [%s] %s", e.Cycle, e.Core, e.Cat, e.What)
}

// Tracer records events into a bounded ring buffer.
type Tracer struct {
	cats  map[Category]bool
	ring  []Event
	next  int
	total uint64
	// Now supplies the current cycle; installed by the machine.
	Now func() uint64
}

// New creates a tracer keeping the last n events of the given categories
// (nil cats = all categories).
func New(n int, cats map[Category]bool) *Tracer {
	if n <= 0 {
		n = 4096
	}
	if cats == nil {
		cats, _ = ParseCategories("")
	}
	return &Tracer{cats: cats, ring: make([]Event, 0, n)}
}

// Enabled reports whether the category is recorded; hook sites use it to
// skip argument formatting.
func (t *Tracer) Enabled(c Category) bool {
	return t != nil && t.cats[c]
}

// Emit records an event. Callers must have checked Enabled.
func (t *Tracer) Emit(core int, cat Category, line mem.Line, what string) {
	if t == nil || !t.cats[cat] {
		return
	}
	var cyc uint64
	if t.Now != nil {
		cyc = t.Now()
	}
	ev := Event{Cycle: cyc, Core: core, Cat: cat, Line: line, What: what}
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
		return
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % cap(t.ring)
}

// Emitf is Emit with formatting.
func (t *Tracer) Emitf(core int, cat Category, line mem.Line, format string, args ...interface{}) {
	if t == nil || !t.cats[cat] {
		return
	}
	t.Emit(core, cat, line, fmt.Sprintf(format, args...))
}

// Total returns the number of events recorded (including evicted ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.ring))
	if len(t.ring) == cap(t.ring) {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Render writes the retained events, one per line.
func (t *Tracer) Render(w io.Writer) {
	if t == nil {
		return
	}
	for _, e := range t.Events() {
		fmt.Fprintln(w, e.String())
	}
	fmt.Fprintf(w, "(%d events recorded, %d retained)\n", t.total, len(t.ring))
}
