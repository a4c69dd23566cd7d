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
//     delays, single NoC hops): scheduling is an O(1) slice append and
//     dispatch pops in FIFO order, which is exactly (when, seq) order;
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
// Events are plain values in flat slices. The typed-event API (AtEvent /
// AfterEvent) lets hot paths schedule a Handler callback with two payload
// words instead of allocating a fresh closure per event; the closure API
// (At / After) remains for cold paths and tests.
package sim

import (
	"errors"
	"fmt"

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

// event is one scheduled callback: either a closure (fn != nil) or a typed
// handler event.
type event struct {
	when uint64
	seq  uint64
	fn   func()
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
// shifting on pop; the slice is reset (capacity retained) when drained.
type bucket struct {
	ev   []event
	head int
}

// equeue is the two-tier calendar queue: the near-future bucket ring plus
// the far-future 4-ary min-heap. Time (now) lives in the Engine and is
// passed in.
type equeue struct {
	ring      [ringSize]bucket
	ringCount int
	// ringMin is a lower bound on the cycle of the earliest ring event,
	// meaningful only while ringCount > 0. Scheduling tightens it eagerly;
	// popping leaves it stale-low and peekRing repairs it lazily by scanning
	// forward, so the ring head is found in amortized O(1) instead of an
	// O(ringSize) scan per query.
	ringMin uint64
	heap    []event // 4-ary min-heap ordered by (when, seq)
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

// schedule places ev at absolute cycle t. Scheduling in the past panics: it
// is always a component bug.
func (e *Engine) schedule(t uint64, ev event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	ev.when, ev.seq = t, e.seq
	e.q.push(e.now, ev)
}

// At schedules fn to run at absolute cycle t.
func (e *Engine) At(t uint64, fn func()) { e.schedule(t, event{fn: fn}) }

// After schedules fn to run d cycles from now.
func (e *Engine) After(d uint64, fn func()) { e.schedule(e.now+d, event{fn: fn}) }

// AtEvent schedules h.OnEvent(kind, a, p) at absolute cycle t without
// allocating: the event is a value in a flat slice and the payload fields
// are stored unboxed.
func (e *Engine) AtEvent(t uint64, h Handler, kind uint8, a uint64, p any) {
	e.schedule(t, event{h: h, kind: kind, a: a, p: p})
}

// AfterEvent schedules h.OnEvent(kind, a, p) d cycles from now.
func (e *Engine) AfterEvent(d uint64, h Handler, kind uint8, a uint64, p any) {
	e.schedule(e.now+d, event{h: h, kind: kind, a: a, p: p})
}

// Progress informs the watchdog that the simulated machine made forward
// progress (e.g. a transaction committed or a section finished).
func (e *Engine) Progress() { e.lastProgress = e.now }

// PeekNext returns the cycle of the earliest pending event without removing
// it: the min of the calendar-ring head and the heap root. It is cheap by
// design — the event-fusion fast path (internal/cpu) calls it once per
// inlined operation to prove no event could interleave.
func (e *Engine) PeekNext() (when uint64, ok bool) {
	when, _, ok = e.q.peek(e.now)
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

// probeClassOf derives the profiling class of an event: closures have no
// handler to ask, typed events use the handler's ProbeClass when offered.
func probeClassOf(ev *event) string {
	if ev.fn != nil {
		return "closure"
	}
	if pc, ok := ev.h.(ProbeClasser); ok {
		return pc.ProbeClass()
	}
	return "event"
}

// exec runs one popped event's callback.
func (e *Engine) exec(ev *event) {
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.h.OnEvent(ev.kind, ev.a, ev.p)
	}
}

// execObserved is exec with the probe bracket. The class lookup and clock
// reads happen only on the probed path; unprobed runs pay one nil test.
func (e *Engine) execObserved(ev *event) {
	if pr := e.probe; pr != nil {
		pr.EventBegin()
		e.exec(ev)
		pr.EventEnd(probeClassOf(ev), ev.kind)
		return
	}
	e.exec(ev)
}

// Step executes the next pending event, advancing time. It reports whether
// an event was executed.
func (e *Engine) Step() bool {
	ev, ok := e.q.pop(e.now)
	if !ok {
		return false
	}
	e.now = ev.when
	e.executed++
	e.execObserved(&ev)
	return true
}

// Run executes events until the queue drains or the cycle limit is exceeded.
// limit==0 means no limit. If the watchdog window elapses without a Progress
// call the run aborts with a diagnostic error.
func (e *Engine) Run(limit uint64) error {
	e.lastProgress = e.now
	for {
		t, _, ok := e.q.peek(e.now)
		if !ok {
			return nil
		}
		if limit != 0 && t > limit {
			return e.limitErr()
		}
		if e.Watchdog != 0 && e.now-e.lastProgress > e.Watchdog {
			return e.watchdogErr()
		}
		ev, _ := e.q.pop(e.now)
		e.now = ev.when
		e.executed++
		e.execObserved(&ev)
	}
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
func (q *equeue) pending() int { return q.ringCount + len(q.heap) }

// reset empties the queue in place, zeroing abandoned events so the GC can
// reclaim their payloads while the bucket and heap backings stay warm.
func (q *equeue) reset() {
	for i := range q.ring {
		b := &q.ring[i]
		for j := range b.ev {
			b.ev[j] = event{}
		}
		b.ev = b.ev[:0]
		b.head = 0
	}
	q.ringCount = 0
	q.ringMin = 0
	for i := range q.heap {
		q.heap[i] = event{}
	}
	q.heap = q.heap[:0]
}

// push inserts ev (when and seq already assigned) routing by horizon: ring
// if fewer than ringSize cycles out relative to now, heap otherwise.
func (q *equeue) push(now uint64, ev event) {
	if ev.when-now < ringSize {
		b := &q.ring[ev.when&ringMask]
		b.ev = append(b.ev, ev)
		if q.ringCount == 0 || ev.when < q.ringMin {
			q.ringMin = ev.when
		}
		q.ringCount++
		return
	}
	q.heapPush(ev)
}

// peekRing returns the cycle of the earliest ring event. It starts from the
// cached ringMin lower bound and scans forward over at most the buckets the
// last pop emptied, tightening the bound as a side effect — amortized O(1)
// across a run because ringMin only moves forward between insertions.
func (q *equeue) peekRing(now uint64) (uint64, bool) {
	if q.ringCount == 0 {
		return 0, false
	}
	t := q.ringMin
	if t < now {
		// The bound predates a lazy time advance; every pending event is at
		// or after now, so the scan can start there. (Starting below now
		// would misread a bucket refilled for cycle t+ringSize.)
		t = now
	}
	for end := now + ringSize; t < end; t++ {
		if b := &q.ring[t&ringMask]; b.head < len(b.ev) {
			q.ringMin = t
			return t, true
		}
	}
	panic("sim: ring accounting corrupted")
}

// peek returns the (when, seq) of the queue's earliest event in (when, seq)
// order without removing it. The heap wins ties at equal when because for
// any cycle, every heap insertion into this queue was sequenced before every
// ring insertion (see the package comment).
func (q *equeue) peek(now uint64) (when, seq uint64, ok bool) {
	rt, rok := q.peekRing(now)
	if len(q.heap) > 0 && (!rok || q.heap[0].when <= rt) {
		return q.heap[0].when, q.heap[0].seq, true
	}
	if !rok {
		return 0, 0, false
	}
	b := &q.ring[rt&ringMask]
	return rt, b.ev[b.head].seq, true
}

// pop removes and returns the queue's earliest event in (when, seq) order.
//
// Every event in a reachable ring bucket provably has when equal to the
// bucket's scan cycle (see the package comment), so bucket FIFO order is
// (when, seq) order. The heap wins ties at equal when because all of its
// same-cycle events were scheduled — and therefore sequenced — before any
// ring event of that cycle.
func (q *equeue) pop(now uint64) (event, bool) {
	rt, rok := q.peekRing(now)
	if len(q.heap) > 0 && (!rok || q.heap[0].when <= rt) {
		return q.heapPop(), true
	}
	if !rok {
		return event{}, false
	}
	b := &q.ring[rt&ringMask]
	ev := b.ev[b.head]
	b.ev[b.head] = event{} // drop references so the GC can reclaim payloads
	b.head++
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
	}
	q.ringCount--
	return ev, true
}

// --- 4-ary min-heap over a flat []event slice ---------------------------

// less orders events by (when, seq).
func less(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *equeue) heapPush(ev event) {
	q.heap = append(q.heap, ev)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (q *equeue) heapPop() event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop references so the GC can reclaim payloads
	q.heap = h[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// siftDown places ev starting from the root of the (already popped) heap.
func (q *equeue) siftDown(ev event) {
	h := q.heap
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		if !less(&h[m], &ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}
