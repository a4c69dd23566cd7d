// Package cpu is an evtalloc fixture: the same lock spin-wait as the
// spinloop fixture in its sanctioned form — a typed event kind re-arms the
// read and the L1.Access completion is a method value bound once at
// construction — so nothing below may be flagged.
package cpu

// Engine stands in for sim.Engine.
type Engine struct{}

func (e *Engine) After(d uint64, fn func()) {}

// Handler mirrors sim.Handler.
type Handler interface {
	OnEvent(kind uint8, a uint64, p any)
}

func (e *Engine) AfterEvent(d uint64, h Handler, kind uint8, a uint64, p any) {}

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
	token  uint64
	spinFn func() // prebound spinCheck
	tick   func() // prebound, re-armed through a field
}

const (
	evSpin       uint8 = 0
	spinInterval       = 16
)

func newCore(e *Engine, l1 *L1, lk *lock) *core {
	c := &core{engine: e, l1: l1, lock: lk}
	c.spinFn = c.spinCheck
	c.tick = func() { c.engine.After(1, c.tick) }
	return c
}

func (c *core) OnEvent(kind uint8, a uint64, _ any) {
	if a == c.token && kind == evSpin {
		c.l1.Access(c.lock.line, false, c.spinFn)
	}
}

func (c *core) spin() { c.l1.Access(c.lock.line, false, c.spinFn) }

func (c *core) spinCheck() {
	if c.lock.held {
		c.engine.AfterEvent(spinInterval, c, evSpin, c.token, nil)
		return
	}
	c.start()
}

func (c *core) start() {}

// acquire is once per lock section, and says so.
func (c *core) acquire(done func()) {
	//lockiller:alloc-ok once per lock section, not per iteration
	c.l1.Access(c.lock.line, true, func() {
		done()
	})
}

// cache has an Access method but is not an L1, so its literal is not flagged.
type cache struct{}

func (cache) Access(line uint64, fn func()) {}

func (c *core) notAnL1(k cache) {
	k.Access(c.lock.line, func() { c.start() })
}
