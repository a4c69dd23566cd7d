// Package cpu is an evtalloc fixture: a lock spin-wait written as a
// recursive closure, the shape of the core's old spinWhileHeld. Every
// iteration passes a fresh L1.Access completion literal, which is flagged.
package cpu

// L1 stands in for coherence.L1.
type L1 struct{}

func (l *L1) Access(line uint64, write bool, done func()) {}

type lock struct {
	line uint64
	held bool
}

type core struct {
	l1   *L1
	lock *lock
}

// spinWhileHeld re-reads the lock line until it is observed free.
func (c *core) spinWhileHeld(done func()) {
	var spin func()
	spin = func() {
		c.l1.Access(c.lock.line, false, func() { // want `closure literal passed as the L1\.Access completion in hot package "cpu"`
			if c.lock.held {
				spin()
				return
			}
			done()
		})
	}
	spin()
}
