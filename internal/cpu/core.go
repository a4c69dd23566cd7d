package cpu

import (
	"fmt"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Core is one hardware thread: an in-order, single-issue core bound to one
// L1 cache, executing its thread program section by section. It implements
// coherence.Client so the L1 can notify it of asynchronous aborts.
type Core struct {
	m    *Machine
	id   int
	prog Program
	st   *stats.Core
	rng  sim.RNG

	// ops is the core's one op buffer, holding the current section's ops
	// (see body). It keeps its capacity across sections and Reset, so a
	// warm core draws them without allocating.
	ops []Op

	secIdx  int
	retries int
	// token invalidates in-flight compute continuations across aborts
	// (L1-side callbacks are epoch-guarded by the L1 itself).
	token uint64
	// attemptTok is the token the current speculative attempt began with;
	// the attempt's body runs under it, so a body whose lock-subscription
	// read completes after an abort finds its continuations stale.
	attemptTok uint64
	// staged holds this attempt's speculative functional counter updates,
	// applied when the section completes and discarded on abort.
	staged map[memLine]uint64
	// resume is the continuation of the one in-flight compute/fault delay
	// or memory access: the core is in-order, so per live token at most one
	// such continuation is ever pending, and stale events are filtered by
	// their token.
	resume struct {
		ops  []Op
		i    int
		tok  uint64
		done func()
	}
	// contFn is the prebound memory-access completion (accessDone), built
	// once so the per-op Access call allocates no closure.
	contFn func()
	// The section, attempt and lock-section continuations, prebound the
	// same way: the state they need lives in the core (secIdx, attemptTok)
	// and the lock, so neither the lock spin, an attempt nor a lock section
	// allocates per iteration.
	spinFn, subscribeFn, finishFn, plainFn         func()
	acquireFn, lockedFn, tlFn, unlockFn, releaseFn func()
}

// Typed-event kinds handled by Core.OnEvent. Each event carries the token
// of the attempt that scheduled it; a mismatch means the attempt aborted.
const (
	evResume  uint8 = iota // continue runOps from c.resume
	evRestart              // restart the current section's attempt
	evSpin                 // re-read the fallback lock (Listing 1's spin)
	evStart                // begin the program (Machine.Run)
	evBarrier              // leave the barrier every participant reached
	evGrant                // take the lock line after a handover (release)
)

// ProbeClass implements sim.ProbeClasser for self-profiler reports.
func (c *Core) ProbeClass() string { return "core" }

// OnEvent implements sim.Handler for the core's allocation-free delays.
func (c *Core) OnEvent(kind uint8, a uint64, _ any) {
	if a != c.token {
		return
	}
	switch kind {
	case evResume:
		r := c.resume
		c.runOps(r.ops, r.i, a, r.done)
	case evRestart:
		c.startAttempt()
	case evSpin:
		c.m.Sys.L1s[c.id].Access(c.m.Lock.Line, false, c.spinFn)
	case evStart:
		c.st.StartSegment(stats.CatNonTx, c.now())
		c.nextSection()
	case evBarrier:
		c.advance()
	case evGrant:
		// Ownership handed over: take the lock line (transfer traffic).
		c.m.Sys.L1s[c.id].Access(c.m.Lock.Line, true, c.lockedFn)
	}
}

type memLine = mem.Line

func newCore(m *Machine, id int, prog Program, st *stats.Core, rng sim.RNG) *Core {
	c := &Core{m: m, id: id, prog: prog, st: st, rng: rng}
	c.contFn = c.accessDone
	c.spinFn = c.spinCheck
	c.subscribeFn = c.subscribed
	c.finishFn = c.finishAttempt
	c.plainFn = c.plainDone
	c.acquireFn = c.acquired
	c.lockedFn = c.locked
	c.tlFn = c.tlBegun
	c.unlockFn = c.unlock
	c.releaseFn = c.released
	m.Sys.L1s[id].SetClient(c)
	return c
}

// reset rebinds the core to a new run (machine reset between runs): a new
// program, a fresh stats sink, and a fresh per-core RNG stream. The staged-
// counter map keeps its buckets (cleared in place, exactly as commits do)
// and the op buffer its capacity; the machine pointer, tile id, and
// prebound continuations survive.
func (c *Core) reset(prog Program, st *stats.Core, rng sim.RNG) {
	c.prog = prog
	c.st = st
	c.rng = rng
	c.ops = c.ops[:0]
	c.secIdx = 0
	c.retries = 0
	c.token = 0
	c.attemptTok = 0
	clear(c.staged)
	c.resume.ops, c.resume.i, c.resume.tok, c.resume.done = nil, 0, 0, nil
}

func (c *Core) engine() *sim.Engine { return c.m.Engine }
func (c *Core) now() uint64         { return c.m.Engine.Now() }
func (c *Core) tx() *htm.TxState    { return c.m.Sys.L1s[c.id].Tx }

// nextSection dispatches the next program section. A plain section's ops
// and a SecAtomic body are drawn into c.ops here, once per section.
func (c *Core) nextSection() {
	if c.secIdx >= c.prog.Len() {
		c.st.Finish(c.now())
		c.m.coreDone()
		return
	}
	switch kind := c.prog.Kind(c.secIdx); kind {
	case SecBarrier:
		c.st.StartSegment(stats.CatNonTx, c.now())
		c.st.Barriers++
		c.m.Barrier.arrive(c)
	case SecAtomic, SecDynamic:
		c.retries = 0
		if kind == SecAtomic {
			c.ops = c.prog.AppendOps(c.ops[:0], c.secIdx, 1)
		}
		if c.m.Cfg.Sync == SysCGL {
			c.acquire()
		} else {
			c.startAttempt()
		}
	default:
		c.st.StartSegment(stats.CatNonTx, c.now())
		c.ops = c.prog.AppendOps(c.ops[:0], c.secIdx, 1)
		c.runOps(c.ops, 0, c.token, c.plainFn)
	}
}

// body returns the current atomic section's ops for attempt: the SecAtomic
// body drawn when the core reached the section, or a SecDynamic body
// redrawn into the same buffer. Redrawing in place is exact: the core is in
// order, so the buffer's only readers are continuations of an attempt that
// has ended, and an aborted attempt's carry a stale token or L1 epoch and
// are dropped before they read an op (DESIGN.md §10).
func (c *Core) body(attempt int) []Op {
	if c.prog.Kind(c.secIdx) == SecDynamic {
		c.ops = c.prog.AppendOps(c.ops[:0], c.secIdx, attempt)
	}
	return c.ops
}

// plainDone completes a non-atomic section. A non-transactional RMW becomes
// visible at completion (it has no commit point to defer to). A finished
// section is progress, so it pats the watchdog as an atomic one does.
func (c *Core) plainDone() {
	c.applyStaged()
	c.engine().Progress()
	c.advance()
}

func (c *Core) advance() {
	c.secIdx++
	c.nextSection()
}

// runOps executes ops[i:] sequentially, honoring the current mode's
// semantics, then calls done. tok guards continuations against aborts.
//
// Compute and fault delays resume through a typed engine event and loads
// and stores complete through the prebound accessDone (the state lives in
// c.resume), so the hot instruction-advance path allocates nothing; only
// the RMW test op builds completion closures.
func (c *Core) runOps(ops []Op, i int, tok uint64, done func()) {
	if tok != c.token {
		return
	}
	if i >= len(ops) {
		done()
		return
	}
	op := ops[i]
	switch op.Kind {
	case OpCompute:
		c.tx().InstsRetired += op.N
		c.resume.ops, c.resume.i, c.resume.done = ops, i+1, done
		c.engine().AfterEvent(op.N, c, evResume, tok, nil)
	case OpRead:
		c.accessOp(ops, i, tok, false, done)
	case OpWrite:
		c.accessOp(ops, i, tok, true, done)
	case OpRMW:
		// Functional atomic increment: load, stage new value, store. The
		// staged value becomes visible only when the section commits.
		//lockiller:alloc-ok RMW is a test and trace-replay op; no generated workload emits it
		c.m.Sys.L1s[c.id].Access(op.Line, false, func() {
			if tok != c.token {
				return
			}
			c.tx().InstsRetired++
			v, ok := c.staged[op.Line]
			if !ok {
				v = c.m.counters[op.Line]
			}
			//lockiller:alloc-ok RMW is a test and trace-replay op; no generated workload emits it
			c.m.Sys.L1s[c.id].Access(op.Line, true, func() {
				if tok != c.token {
					return
				}
				if c.staged == nil {
					c.staged = make(map[memLine]uint64)
				}
				c.staged[op.Line] = v + 1
				c.tx().InstsRetired++
				c.runOps(ops, i+1, tok, done)
			})
		})
	case OpFault:
		if c.tx().Mode == htm.HTM {
			// Exceptions abort best-effort HTM transactions; the paper's
			// switchingMode deliberately does not rescue them (§III-C).
			c.m.Sys.L1s[c.id].AbortLocal(htm.CauseFault)
			return
		}
		c.resume.ops, c.resume.i, c.resume.done = ops, i+1, done
		c.engine().AfterEvent(faultPenalty, c, evResume, tok, nil)
	default:
		panic(fmt.Sprintf("cpu: unknown op kind %d", op.Kind))
	}
}

// accessOp performs op i's load or store and steps to the next op when the
// memory system completes it. The continuation state is parked in c.resume
// and the L1 is handed the prebound accessDone, so the per-op path builds
// no closure. This relies on the in-order pipeline: between issuing the
// access and its completion the core runs nothing else that could overwrite
// c.resume, and a completion surviving an abort is filtered by its token.
func (c *Core) accessOp(ops []Op, i int, tok uint64, write bool, done func()) {
	c.resume.ops, c.resume.i, c.resume.tok, c.resume.done = ops, i+1, tok, done
	c.m.Sys.L1s[c.id].Access(ops[i].Line, write, c.contFn)
}

// accessDone is the shared completion continuation for accessOp.
func (c *Core) accessDone() {
	if c.resume.tok != c.token {
		return
	}
	c.tx().InstsRetired++
	c.runOps(c.resume.ops, c.resume.i, c.resume.tok, c.resume.done)
}

// --- HTM execution ---------------------------------------------------

// startAttempt begins (or restarts) a speculative attempt of the section.
func (c *Core) startAttempt() {
	if c.retries >= c.m.Sys.HTM.MaxRetries {
		c.fallback()
		return
	}
	if !c.m.Sys.HTM.HTMLock && c.m.Lock.Held() {
		// Listing 1's retry strategy: with the classic interface there is
		// no point starting while the fallback lock is held — the
		// subscription would abort us instantly. Spin until free.
		c.st.StartSegment(stats.CatWaitLock, c.now())
		c.m.Sys.L1s[c.id].Access(c.m.Lock.Line, false, c.spinFn)
		return
	}
	c.st.StartSegment(stats.CatHTM, c.now())
	c.tx().BeginAttempt(htm.HTM, c.now())
	c.st.Attempts++
	if o := c.m.Sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindXBegin, Core: c.id, Section: c.secIdx, Attempt: c.tx().Attempt})
	}
	c.attemptTok = c.token
	if c.m.Sys.HTM.HTMLock {
		// HTMLock interface: no fallback-lock subscription (paper
		// Listing 1's grey modification removes the lock read).
		c.runBody()
		return
	}
	// Classic interface: read the fallback lock into the read set; abort
	// immediately if it is held.
	c.m.Sys.L1s[c.id].Access(c.m.Lock.Line, false, c.subscribeFn)
}

// spinCheck completes one spin-wait read of the fallback lock: re-read
// spinInterval cycles later while it is held, else start the attempt. The
// spin runs between attempts, outside any transaction, so no abort can bump
// c.token under it and the re-arm event carries the live token.
func (c *Core) spinCheck() {
	if c.m.Lock.Held() {
		c.engine().AfterEvent(spinInterval, c, evSpin, c.token, nil)
		return
	}
	c.startAttempt()
}

// subscribed completes the classic interface's fallback-lock read.
func (c *Core) subscribed() {
	if c.m.Lock.Held() {
		c.m.Sys.L1s[c.id].AbortLocal(htm.CauseMutex)
		return
	}
	c.runBody()
}

// runBody runs the current section's body for this attempt.
func (c *Core) runBody() {
	c.runOps(c.body(c.tx().Attempt), 0, c.attemptTok, c.finishFn)
}

// finishAttempt commits the attempt in whatever mode it ended in: HTM
// commit, or HTMLock-mode completion after a successful switch (STL).
func (c *Core) finishAttempt() {
	cat := stats.CatHTM
	switch mode := c.tx().Mode; mode {
	case htm.HTM:
		// The functional commit must coincide with the protection drop:
		// CommitTx clears the read/write sets and wakes rejected
		// requesters, so the staged values have to be visible first.
		c.applyStaged()
		c.m.Sys.L1s[c.id].CommitTx()
	case htm.STL:
		// The transaction switched to HTMLock mode mid-flight; hlend
		// without releasing the fallback lock (Listing 2). The attempt's
		// work was saved, not wasted: it counts as a commit.
		c.applyStaged()
		c.m.Sys.L1s[c.id].HLEnd()
		c.st.SwitchRuns++
		cat = stats.CatSwitchLock
	default:
		panic(fmt.Sprintf("cpu: attempt finished in mode %v", mode))
	}
	c.st.Commits++
	if o := c.m.Sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindAttemptCommit, Core: c.id, Section: c.secIdx,
			Attempt: c.tx().Attempt, Start: c.tx().AttemptStart, Switched: cat == stats.CatSwitchLock})
	}
	c.st.CloseAs(cat, stats.CatNonTx, c.now())
	c.sectionDone()
}

func (c *Core) sectionDone() {
	c.applyStaged()
	c.tx().Reset()
	c.st.Sections++
	c.engine().Progress()
	c.advance()
}

// applyStaged commits this section's functional counter updates. The map is
// cleared in place, not dropped: RMW-heavy sections would otherwise rebuild
// its buckets every attempt.
func (c *Core) applyStaged() {
	for l, v := range c.staged {
		c.m.counters[l] = v
	}
	clear(c.staged)
}

// OnDoom implements coherence.Client: the L1 has flash-cleared the
// transaction; schedule the architectural rollback and the retry.
func (c *Core) OnDoom(cause htm.AbortCause) {
	c.token++
	clear(c.staged) // discard speculative functional updates, keep the buckets
	c.st.Abort(cause)
	if o := c.m.Sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindAttemptAbort, Core: c.id, Section: c.secIdx,
			Attempt: c.tx().Attempt, Start: c.tx().AttemptStart, Cause: cause})
	}
	c.st.CloseAs(stats.CatAborted, stats.CatRollback, c.now())
	if cause != htm.CauseMutex {
		// Lock-busy aborts do not consume the retry budget: the thread
		// waits for the lock to free and tries again (Listing 1's retry
		// strategy); all other causes bring the transaction one step
		// closer to the fallback path.
		c.retries++
	}
	delay := rollbackPenalty + c.backoff()
	c.engine().AfterEvent(delay, c, evRestart, c.token, nil)
}

// backoff returns the randomized exponential post-abort delay.
func (c *Core) backoff() uint64 {
	shift := c.retries
	if shift > 6 {
		shift = 6
	}
	base := uint64(abortBackoffBase) << uint(shift)
	return base/2 + c.rng.Uint64()%base
}

// fallback executes the section on the non-speculative path, the lock
// section.
func (c *Core) fallback() {
	if o := c.m.Sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindFallback, Core: c.id, Section: c.secIdx, Count: c.retries})
	}
	c.acquire()
}

// --- lock sections ----------------------------------------------------
//
// A lock section runs the current section under the fallback lock: a TL
// lock transaction under HTMLock, a plain mutex section otherwise. CGL runs
// every atomic section this way, as a mutex section. Each step completes
// through a prebound continuation, so a lock section allocates nothing.

// acquire takes the FIFO queued lock. The RMW is modeled by a real store to
// the lock line; a contended caller parks (futex-style, no spin traffic)
// and is handed the lock directly by the releasing core, paying one more
// cache-to-cache transfer on the handover (evGrant).
func (c *Core) acquire() {
	lk := c.m.Lock
	c.st.StartSegment(stats.CatWaitLock, c.now())
	if o := c.m.Sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindLockAcquire, Core: c.id, Line: lk.Line, Held: lk.Held(), Count: lk.Waiters()})
	}
	c.m.Sys.L1s[c.id].Access(lk.Line, true, c.acquireFn)
}

// acquired completes acquire's store: take the lock if it is free, else
// wait in its queue for the handover.
func (c *Core) acquired() {
	if c.m.Lock.acquireOrEnqueue(c) {
		c.locked()
	}
}

// locked runs the section body once the lock is held: as a TL lock
// transaction after hlbegin under HTMLock, as a mutex section otherwise.
func (c *Core) locked() {
	if c.m.Cfg.Sync == SysHTM && c.m.Sys.HTM.HTMLock {
		c.m.Sys.L1s[c.id].HLBegin(c.tlFn)
		return
	}
	c.st.StartSegment(stats.CatLock, c.now())
	c.tx().Mode = htm.Mutex
	c.runOps(c.body(1), 0, c.token, c.unlockFn)
}

// tlBegun runs the body as a TL lock transaction once hlbegin is granted.
func (c *Core) tlBegun() {
	c.st.StartSegment(stats.CatLock, c.now())
	c.tx().BeginAttempt(htm.TL, c.now())
	c.runOps(c.body(c.tx().Attempt), 0, c.token, c.unlockFn)
}

// unlock ends the body in whatever mode it ran and frees the lock with a
// real store.
func (c *Core) unlock() {
	if c.tx().Mode == htm.TL {
		// Staged updates become visible before hlend wakes the requesters
		// this lock transaction rejected — otherwise a woken reader could
		// see pre-transaction values while the lock-release access is
		// still in flight.
		c.applyStaged()
		c.m.Sys.L1s[c.id].HLEnd()
	} else {
		c.tx().Mode = htm.NonTx
	}
	lk := c.m.Lock
	if o := c.m.Sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindLockRelease, Core: c.id, Line: lk.Line, Count: lk.Waiters()})
	}
	c.m.Sys.L1s[c.id].Access(lk.Line, true, c.releaseFn)
}

// released completes unlock's store: the next queued core, if any, takes
// the lock line one cycle later, and the section completes.
func (c *Core) released() {
	if w := c.m.Lock.release(c.id); w != nil {
		c.engine().AfterEvent(1, w, evGrant, w.token, nil)
	}
	c.st.LockRuns++
	c.applyStaged()
	c.tx().Reset()
	c.st.Sections++
	c.engine().Progress()
	c.st.StartSegment(stats.CatNonTx, c.now())
	c.advance()
}
