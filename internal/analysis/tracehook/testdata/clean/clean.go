// Package coherence is a tracehook fixture: every observer call below is
// guarded and must NOT be flagged.
package coherence

// Event and Observer stand in for trace.Event and trace.Observer.
type Event struct {
	Kind uint8
	Core int
	Line uint64
}

type Observer interface{ Event(Event) }

type sys struct{ obs Observer }

type l1 struct {
	sys  *sys
	obs  Observer
	core int
}

// initGuard rebinds the handle in the if init, the shape every model site
// uses.
func (l *l1) initGuard(line uint64) {
	if o := l.sys.obs; o != nil {
		o.Event(Event{Kind: 1, Core: l.core, Line: line})
	}
}

// fieldGuard compares the selector itself.
func (l *l1) fieldGuard() {
	if l.obs != nil {
		l.obs.Event(Event{Kind: 2, Core: l.core})
	}
}

// compoundGuard may combine the nil check with other predicates in a &&
// chain, on either side.
func (l *l1) compoundGuard(start, now uint64) {
	if o := l.obs; now > start && o != nil {
		o.Event(Event{Kind: 3, Core: l.core})
	}
	if o := l.obs; nil != o && now > start {
		o.Event(Event{Kind: 3, Core: l.core})
	}
}

// nestedGuard: a guard further out in the same function still covers the
// call.
func (l *l1) nestedGuard(lines []uint64) {
	if o := l.obs; o != nil {
		for _, line := range lines {
			o.Event(Event{Kind: 4, Core: l.core, Line: line})
		}
	}
}
