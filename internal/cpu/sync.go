package cpu

import "repro/internal/mem"

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
	queue []*Core

	// Acquisitions and Handovers are stats counters.
	Acquisitions, Handovers uint64
}

// NewSpinLock creates a free lock on the given line.
func NewSpinLock(l mem.Line) *SpinLock { return &SpinLock{Line: l, owner: -1} }

// Reset returns the lock to its just-constructed free state in place
// (machine reset between runs). The queue backing survives: release shifts
// the waiters down instead of sliding the slice forward, so the backing
// never moves and a warm queue appends without allocating.
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

// acquireOrEnqueue atomically takes the lock for c if free (returning true)
// or queues c until a release hands the lock over (invoked at the
// completion of the RMW store that models the atomic operation).
func (s *SpinLock) acquireOrEnqueue(c *Core) bool {
	if !s.held {
		s.held = true
		s.owner = c.id
		s.Acquisitions++
		return true
	}
	s.queue = append(s.queue, c)
	return false
}

// release frees the lock or hands it directly to the next queued core,
// returning that core (nil when the queue was empty). Releasing a lock not
// held by core is a bug.
func (s *SpinLock) release(core int) *Core {
	if !s.held || s.owner != core {
		panic("cpu: release of a lock not held by this core")
	}
	if len(s.queue) == 0 {
		s.held = false
		s.owner = -1
		return nil
	}
	w := s.queue[0]
	s.queue = s.queue[:copy(s.queue, s.queue[1:])]
	s.owner = w.id
	s.Acquisitions++
	s.Handovers++
	return w
}

// Barrier is a program-level sense barrier: threads arriving wait until
// all n participants have arrived, then all resume.
type Barrier struct {
	n       int
	waiting []*Core
	// Crossings counts completed barrier episodes.
	Crossings uint64
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("cpu: barrier with no participants")
	}
	return &Barrier{n: n}
}

// Reset returns the barrier to its just-constructed state (machine reset
// between runs). A clean run always ends with an empty waiting list —
// arrive empties it when the last participant crosses — so only the
// episode counter needs clearing; the backing is kept.
func (b *Barrier) Reset() {
	b.waiting = b.waiting[:0]
	b.Crossings = 0
}

// arrive parks c until all participants have arrived, then resumes every
// waiting core one cycle later, in arrival order.
func (b *Barrier) arrive(c *Core) {
	b.waiting = append(b.waiting, c)
	if len(b.waiting) < b.n {
		return
	}
	b.Crossings++
	for _, w := range b.waiting {
		w.engine().AfterEvent(1, w, evBarrier, w.token, nil)
	}
	b.waiting = b.waiting[:0]
}
