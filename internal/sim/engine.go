// Package sim provides the discrete-event simulation kernel used by every
// other component of the LockillerTM reproduction.
//
// The kernel is a single-threaded event loop: components schedule callbacks
// at absolute or relative cycle times and the engine executes them in
// non-decreasing time order. Events scheduled for the same cycle run in
// scheduling order (a monotonically increasing sequence number breaks ties),
// which makes every simulation bit-for-bit reproducible for a given seed.
//
// The scheduler is a two-tier calendar queue tuned for the delay mix the
// coherence and CPU models generate:
//
//   - a near-future bucket ring of ringSize one-cycle buckets absorbs the
//     dominant small-delay events (cache hit latencies, directory decision
//     delays, single NoC hops): scheduling is an O(1) slice append,
//     dispatch takes each bucket in FIFO order, which is exactly (when,
//     seq) order, and a one-word occupancy mask finds the next bucket;
//   - everything at least ringSize cycles out (memory latencies, retry
//     backoffs, watchdog-scale timeouts) goes to a hand-specialized 4-ary
//     min-heap over a flat []event slice — no container/heap interface
//     boxing, no per-Push allocation.
//
// Because simulated time is monotonic, for any cycle t every heap insertion
// with when==t happens strictly before every ring insertion with when==t
// (the former requires now <= t-ringSize, the latter now > t-ringSize), so
// popping the heap whenever its top is <= the earliest ring bucket preserves
// the global (when, seq) order exactly. The two-tier scheduler is therefore
// bit-for-bit identical in execution order to a single ordered queue.
//
// Every event is one Handler.OnEvent call scheduled with AtEvent or
// AfterEvent: a 64-byte value in a flat slice carrying the handler, a kind
// discriminator and two payload words, so scheduling allocates nothing.
// The record is written once, by AtEvent into its ring or heap slot, and
// read once, in place, by dispatch: no call passes it by value.
package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/obs"
)

// ErrLimitReached is returned by Run when the cycle limit expires before the
// event queue drains. It usually indicates a livelock or deadlock in the
// simulated machine and is treated as fatal by the harness.
var ErrLimitReached = errors.New("sim: cycle limit reached with events still pending")

// Handler receives typed events scheduled with AtEvent/AfterEvent. kind
// discriminates between the handler's event flavors; a and p are payload
// words chosen so that neither boxes (uint64 goes in a, pointers go in p).
type Handler interface {
	OnEvent(kind uint8, a uint64, p any)
}

// event is one scheduled h.OnEvent(kind, a, p) call, 64 bytes.
type event struct {
	when uint64
	seq  uint64
	h    Handler
	p    any
	a    uint64
	kind uint8
}

const (
	ringBits = 6
	// ringSize is the bucket-ring horizon: events fewer than ringSize cycles
	// out go to the ring, the rest to the heap. 64 covers every fixed
	// latency of Table I except main memory (100 cycles).
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// bucket holds the events of one cycle in FIFO (= seq) order. head avoids
// shifting on dispatch; the slice is reset (capacity retained) when drained.
type bucket struct {
	ev   []event
	head int
}

// equeue is the two-tier calendar queue: the near-future bucket ring plus
// the far-future 4-ary min-heap. Time (now) lives in the Engine and is
// passed in.
type equeue struct {
	ring [ringSize]bucket
	// occupied has bit i set while bucket i holds an event, so the ring
	// head is one rotate and one trailing-zero count away.
	occupied uint64
	heap     []event // 4-ary min-heap ordered by (when, seq)
}

// Engine is the discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now      uint64
	seq      uint64
	executed uint64

	q equeue

	// probe, when non-nil, observes event dispatch on the host clock
	// (internal/obs). Every callsite is nil-guarded (enforced by the
	// tracehook lint rule), so the disabled cost is one pointer test per
	// event (DESIGN.md §14).
	probe obs.EngineProbe

	// Watchdog state: the engine aborts a Run if no progress callback fires
	// within Watchdog cycles. Components that make forward progress (e.g. a
	// core committing a transaction) call Progress to pat the watchdog.
	Watchdog     uint64
	lastProgress uint64
}

// NewEngine returns an engine with the default watchdog window.
func NewEngine() *Engine {
	return &Engine{Watchdog: 50_000_000}
}

// Now returns the current simulation cycle.
func (e *Engine) Now() uint64 { return e.now }

// Reset returns the engine to its just-constructed state in place: clock and
// sequence counter at zero, no pending events, executed count cleared. The
// calendar-queue backings (ring buckets, heap slice) keep their grown
// capacity — queue order never depends on capacity, only on (when, seq) —
// so a reset machine schedules without re-growing. Watchdog and probe are
// configuration and survive; no run may be in progress.
func (e *Engine) Reset() {
	e.now, e.seq, e.executed, e.lastProgress = 0, 0, 0, 0
	e.q.reset()
}

// Executed returns the number of events executed so far; useful for
// performance reporting and for tests asserting that work happened.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return e.q.pending() }

// AtEvent schedules h.OnEvent(kind, a, p) at absolute cycle t without
// allocating: the record is written once, straight into its ring bucket
// (fewer than ringSize cycles out) or its heap slot, with the payload
// unboxed. Scheduling in the past panics: it is always a component bug.
func (e *Engine) AtEvent(t uint64, h Handler, kind uint8, a uint64, p any) {
	if t < e.now {
		panicPast(t, e.now)
	}
	e.seq++
	q := &e.q
	var s *event
	if t-e.now < ringSize {
		b := &q.ring[t&ringMask]
		b.ev, s = grow(b.ev)
		q.occupied |= 1 << (t & ringMask)
	} else {
		s = q.heapSlot(t)
	}
	s.when, s.seq, s.h, s.p, s.a, s.kind = t, e.seq, h, p, a, kind
}

// panicPast is AtEvent's past-time failure, kept out of line so the
// scheduling path carries no formatting code.
//
//go:noinline
func panicPast(t, now uint64) {
	panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, now))
}

// AfterEvent schedules h.OnEvent(kind, a, p) d cycles from now.
func (e *Engine) AfterEvent(d uint64, h Handler, kind uint8, a uint64, p any) {
	e.AtEvent(e.now+d, h, kind, a, p)
}

// Progress informs the watchdog that the simulated machine made forward
// progress (e.g. a transaction committed or a section finished).
func (e *Engine) Progress() { e.lastProgress = e.now }

// PeekNext returns the cycle of the earliest pending event without removing
// it: the min of the calendar-ring head and the heap root. It is cheap by
// design — the event-fusion fast path (internal/cpu) calls it once per
// inlined operation to prove no event could interleave.
func (e *Engine) PeekNext() (when uint64, ok bool) {
	when, _, ok = e.q.next(e.now)
	return when, ok
}

// AdvanceTo lazily advances simulated time to cycle t without executing an
// event — the engine half of the event-fusion fast path. The caller must
// have established via PeekNext that every pending event fires strictly
// after t; the engine re-checks and panics otherwise, because silently
// passing a pending event would reorder the simulation. (Advancing to
// exactly the next event's cycle is also rejected: an already-queued event
// carries an earlier sequence number than anything the caller would go on
// to do at t, so it must run first.)
func (e *Engine) AdvanceTo(t uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%d) behind now %d", t, e.now))
	}
	if next, ok := e.PeekNext(); ok && next <= t {
		panic(fmt.Sprintf("sim: AdvanceTo(%d) would pass the pending event at %d", t, next))
	}
	e.now = t
}

// SetProbe attaches (or, with nil, detaches) the host-side engine probe.
// It must be set before Run and stay fixed for the duration of the run.
func (e *Engine) SetProbe(p obs.EngineProbe) { e.probe = p }

// ProbeClasser lets a Handler name itself in self-profiler reports.
// Handlers that don't implement it are classed "event".
type ProbeClasser interface {
	ProbeClass() string
}

// probeClassOf derives the profiling class of an event: the handler's
// ProbeClass when offered.
func probeClassOf(h Handler) string {
	if pc, ok := h.(ProbeClasser); ok {
		return pc.ProbeClass()
	}
	return "event"
}

// Step executes the next pending event, advancing time. It reports whether
// an event was executed.
func (e *Engine) Step() bool {
	t, inHeap, ok := e.q.next(e.now)
	if ok {
		e.dispatch(t, inHeap)
	}
	return ok
}

// Run executes events until the queue drains or the cycle limit is exceeded.
// limit==0 means no limit. If the watchdog window elapses without a Progress
// call the run aborts with a diagnostic error.
func (e *Engine) Run(limit uint64) error {
	e.lastProgress = e.now
	for {
		t, inHeap, ok := e.q.next(e.now)
		if !ok {
			return nil
		}
		if limit != 0 && t > limit {
			return e.limitErr()
		}
		if e.Watchdog != 0 && e.now-e.lastProgress > e.Watchdog {
			return e.watchdogErr()
		}
		e.dispatch(t, inHeap)
	}
}

// dispatch removes the earliest event, which next located at cycle t, and
// runs it. A ring event is read in place from its bucket slot, whose two
// pointer words are then cleared so the GC can reclaim the payload; the
// slot is released before the call because the handler may schedule into
// the same bucket. The class lookup and clock reads happen only on the
// probed path; unprobed runs pay one nil test.
func (e *Engine) dispatch(t uint64, inHeap bool) {
	e.now = t
	e.executed++
	var (
		h    Handler
		p    any
		a    uint64
		kind uint8
	)
	q := &e.q
	if inHeap {
		s := &q.heap[0]
		h, p, a, kind = s.h, s.p, s.a, s.kind
		q.heapPop()
	} else {
		b := &q.ring[t&ringMask]
		s := &b.ev[b.head]
		h, p, a, kind = s.h, s.p, s.a, s.kind
		s.h, s.p = nil, nil
		if b.head++; b.head == len(b.ev) {
			b.ev = b.ev[:0]
			b.head = 0
			q.occupied &^= 1 << (t & ringMask)
		}
	}
	if pr := e.probe; pr != nil {
		pr.EventBegin()
		h.OnEvent(kind, a, p)
		pr.EventEnd(probeClassOf(h), kind)
		return
	}
	h.OnEvent(kind, a, p)
}

// limitErr and watchdogErr build the Run failure diagnostics.
func (e *Engine) limitErr() error {
	return fmt.Errorf("%w: now=%d pending=%d", ErrLimitReached, e.now, e.Pending())
}

func (e *Engine) watchdogErr() error {
	return fmt.Errorf("sim: watchdog expired: no progress since cycle %d (now %d, pending %d)",
		e.lastProgress, e.now, e.Pending())
}

// --- equeue operations ----------------------------------------------------

// pending returns the number of queued events.
func (q *equeue) pending() int {
	n := len(q.heap)
	for i := range q.ring {
		n += len(q.ring[i].ev) - q.ring[i].head
	}
	return n
}

// reset empties the queue in place, zeroing abandoned events so the GC can
// reclaim their payloads while the bucket and heap backings stay warm.
func (q *equeue) reset() {
	for i := range q.ring {
		b := &q.ring[i]
		clear(b.ev)
		b.ev = b.ev[:0]
		b.head = 0
	}
	q.occupied = 0
	clear(q.heap)
	q.heap = q.heap[:0]
}

// peekRing returns the cycle of the earliest ring event: the first
// occupied bucket at or after now's. Every ring event fires within ringSize
// cycles of now, so each occupied bucket holds exactly one cycle's events.
func (q *equeue) peekRing(now uint64) (uint64, bool) {
	if q.occupied == 0 {
		return 0, false
	}
	return now + uint64(bits.TrailingZeros64(bits.RotateLeft64(q.occupied, -int(now&ringMask)))), true
}

// next locates the queue's earliest event in (when, seq) order: its cycle
// and whether it is the heap root rather than the head of ring bucket
// when&ringMask.
//
// Every event in an occupied ring bucket has when equal to the cycle
// peekRing reads for that bucket (see the package comment), so bucket FIFO
// order is (when, seq) order. The heap wins ties at equal when because all of its
// same-cycle events were scheduled — and therefore sequenced — before any
// ring event of that cycle.
func (q *equeue) next(now uint64) (when uint64, inHeap, ok bool) {
	rt, rok := q.peekRing(now)
	if len(q.heap) > 0 && (!rok || q.heap[0].when <= rt) {
		return q.heap[0].when, true, true
	}
	return rt, false, rok
}

// --- 4-ary min-heap over a flat []event slice ---------------------------

// less orders events by (when, seq).
func less(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// grow extends s by one slot and returns the new slot for the caller to
// fill in place.
func grow(s []event) ([]event, *event) {
	if n := len(s); n < cap(s) {
		s = s[:n+1]
	} else {
		s = append(s, event{})
	}
	return s, &s[len(s)-1]
}

// heapSlot opens the heap slot for a new event at cycle t. The event's seq
// is the largest issued so far, so it orders after every queued event of
// cycle t: the hole sifts up while its parent fires strictly later.
func (q *equeue) heapSlot(t uint64) *event {
	hp, _ := grow(q.heap)
	q.heap = hp
	i := len(hp) - 1
	for i > 0 {
		up := (i - 1) >> 2
		if hp[up].when <= t {
			break
		}
		hp[i] = hp[up]
		i = up
	}
	return &hp[i]
}

// heapPop removes the root, which the caller has read: the last record
// sifts down from the root, compared in place and copied once.
func (q *equeue) heapPop() {
	h := q.heap
	n := len(h) - 1
	if last := &h[n]; n > 0 {
		i := 0
		for c := 1; c < n; c = i<<2 + 1 {
			m := c
			for j := c + 1; j < min(c+4, n); j++ {
				if less(&h[j], &h[m]) {
					m = j
				}
			}
			if !less(&h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = *last
	}
	h[n] = event{} // drop references so the GC can reclaim payloads
	q.heap = h[:n]
}
