// Package cpu is an evtalloc fixture: a lock spin-wait written as a
// self-re-arming closure, the shape of the core's old spinWhileHeld. Every
// iteration allocates a fresh L1.Access completion and runs as an anonymous
// closure event, so both the completion literal and the re-arm are flagged.
package cpu

// Engine stands in for sim.Engine.
type Engine struct{}

func (e *Engine) After(d uint64, fn func()) {}

// L1 stands in for coherence.L1.
type L1 struct{}

func (l *L1) Access(line uint64, write bool, done func()) {}

type lock struct {
	line uint64
	held bool
}

type core struct {
	engine *Engine
	l1     *L1
	lock   *lock
}

const spinInterval = 16

// spinWhileHeld re-reads the lock line until it is observed free.
func (c *core) spinWhileHeld(done func()) {
	var spin func()
	spin = func() {
		c.l1.Access(c.lock.line, false, func() { // want `closure literal passed as the L1\.Access completion in hot package "cpu"`
			if c.lock.held {
				c.engine.After(spinInterval, spin) // want `closure spin re-arms itself through Engine\.After in hot package "cpu"`
				return
			}
			done()
		})
	}
	spin()
}

// pollDirect re-arms itself without an access in between.
func (c *core) pollDirect() {
	var poll func()
	poll = func() {
		if c.lock.held {
			c.engine.After(spinInterval, poll) // want `closure poll re-arms itself through Engine\.After`
		}
	}
	poll()
}
