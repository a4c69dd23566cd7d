// Package plot is an evtalloc fixture: a closure literal passed as an
// L1.Access completion outside the hot set is accepted without a waiver.
package plot

// L1 stands in for coherence.L1.
type L1 struct{}

func (l *L1) Access(line uint64, write bool, done func()) {}

func renderLater(l1 *L1, done func()) {
	l1.Access(0, false, func() {
		done()
	})
}
