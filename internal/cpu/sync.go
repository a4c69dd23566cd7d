package cpu

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// SpinLock is the functional state of a lock variable: a FIFO queued lock
// (MCS/futex-style — what a production pthread mutex behaves like under
// contention), so the CGL baseline and the HTM fallback path pay a
// realistic one-transfer handover rather than a thundering-herd storm.
// The coherence traffic of lock operations is simulated through real L1
// accesses to Line; only the held/owner/queue state is tracked
// functionally (the simulator does not model data values).
type SpinLock struct {
	Line  mem.Line
	held  bool
	owner int
	queue []lockWaiter

	// Acquisitions and Handovers are stats counters.
	Acquisitions, Handovers uint64
}

type lockWaiter struct {
	core    int
	granted func()
}

// NewSpinLock creates a free lock on the given line.
func NewSpinLock(l mem.Line) *SpinLock { return &SpinLock{Line: l, owner: -1} }

// Reset returns the lock to its just-constructed free state in place
// (machine reset between runs). The queue backing survives — release slides
// the slice forward, so re-slicing to zero length simply rewinds into
// whatever backing the last run grew.
func (s *SpinLock) Reset() {
	s.held = false
	s.owner = -1
	s.queue = s.queue[:0]
	s.Acquisitions, s.Handovers = 0, 0
}

// Held reports whether the lock is currently held.
func (s *SpinLock) Held() bool { return s.held }

// Owner returns the current holder's core id, or -1.
func (s *SpinLock) Owner() int { return s.owner }

// Waiters returns the queue length.
func (s *SpinLock) Waiters() int { return len(s.queue) }

// acquireOrEnqueue atomically takes the lock if free (returning true) or
// queues the caller; granted runs when ownership is handed over (invoked
// at the completion of the RMW store that models the atomic operation).
func (s *SpinLock) acquireOrEnqueue(core int, granted func()) bool {
	if !s.held {
		s.held = true
		s.owner = core
		s.Acquisitions++
		return true
	}
	s.queue = append(s.queue, lockWaiter{core: core, granted: granted})
	return false
}

// release frees the lock or hands it directly to the next queued waiter,
// returning the waiter's grant callback (nil when the queue was empty).
// Releasing a lock not held by core is a bug.
func (s *SpinLock) release(core int) func() {
	if !s.held || s.owner != core {
		panic("cpu: release of a lock not held by this core")
	}
	if len(s.queue) == 0 {
		s.held = false
		s.owner = -1
		return nil
	}
	w := s.queue[0]
	s.queue = s.queue[1:]
	s.owner = w.core
	s.Acquisitions++
	s.Handovers++
	return w.granted
}

// Barrier is a program-level sense barrier: threads arriving wait until
// all n participants have arrived, then all resume.
type Barrier struct {
	engine  *sim.Engine
	n       int
	waiting []func()
	// Crossings counts completed barrier episodes.
	Crossings uint64
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(engine *sim.Engine, n int) *Barrier {
	if n <= 0 {
		panic("cpu: barrier with no participants")
	}
	return &Barrier{engine: engine, n: n}
}

// Reset returns the barrier to its just-constructed state (machine reset
// between runs). A clean run always ends with an empty waiting list —
// Arrive drops it when the last participant crosses — so only the episode
// counter needs clearing.
func (b *Barrier) Reset() {
	b.waiting = nil
	b.Crossings = 0
}

// Arrive blocks the caller (cont is deferred) until all participants have
// arrived, then releases everyone.
func (b *Barrier) Arrive(cont func()) {
	b.waiting = append(b.waiting, cont)
	if len(b.waiting) < b.n {
		return
	}
	b.Crossings++
	ws := b.waiting
	b.waiting = nil
	for _, w := range ws {
		w := w
		b.engine.After(1, w)
	}
}
