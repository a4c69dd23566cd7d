// Package trace defines the Observer interface, so the rule skips it: the
// tee forwards to observers it was built from, unguarded.
package trace

type Event struct {
	Kind uint8
	Core int
}

type Observer interface{ Event(Event) }

type Tee []Observer

func (t Tee) Event(e Event) {
	for _, o := range t {
		o.Event(e)
	}
}
