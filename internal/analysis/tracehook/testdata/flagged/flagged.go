// Package stats is a tracehook fixture: unguarded observer calls must be
// flagged in any package, including one the rule once skipped as off the
// hot path. Event and Observer stand in for trace.Event and trace.Observer
// (fixtures are self-contained).
package stats

type Event struct {
	Kind       uint8
	Core       int
	Start, End uint64
}

type Observer interface{ Event(Event) }

type core struct {
	id    int
	sink  Observer
	other *core
}

// bare builds the event and calls through a possibly nil interface.
func (c *core) bare(start, now uint64) {
	c.sink.Event(Event{Kind: 1, Core: c.id, Start: start, End: now}) // want `unguarded Observer\.Event call`
}

// unrelatedGuard checks something else: still flagged, twice.
func (c *core) unrelatedGuard(start, now uint64) {
	if now > start {
		c.sink.Event(Event{Kind: 1, Core: c.id}) // want `unguarded Observer\.Event call`
	}
	if c.other != nil {
		c.sink.Event(Event{Kind: 1, Core: c.id}) // want `compares c\.sink against nil`
	}
}

// orGuard: a || chain does not imply the handle is set.
func (c *core) orGuard(now uint64) {
	if o := c.sink; o != nil || now > 0 {
		o.Event(Event{Kind: 1, Core: c.id}) // want `unguarded Observer\.Event call`
	}
}

// elseBranch runs exactly when the handle is nil.
func (c *core) elseBranch() {
	if o := c.sink; o == nil {
		return
	} else {
		o.Event(Event{Kind: 1, Core: c.id}) // want `unguarded Observer\.Event call`
	}
}

// closureEscapesGuard: the guard is outside the func literal, so the call
// runs unguarded whenever the closure fires later.
func (c *core) closureEscapesGuard(defer_ func(func())) {
	if c.sink != nil {
		defer_(func() {
			c.sink.Event(Event{Kind: 1, Core: c.id}) // want `unguarded Observer\.Event call`
		})
	}
}
