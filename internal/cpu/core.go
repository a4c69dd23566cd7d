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
	rng  *sim.RNG

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
	// The section and attempt continuations, prebound the same way: the
	// state they need lives in the core (secIdx, attemptTok), so neither
	// the lock spin nor an attempt allocates per iteration.
	spinFn, subscribeFn, finishFn, plainFn func()

	// fusedRuns counts event-fusion fast-path runs (maximal inline op
	// chains); collected into stats.Run.FusedRuns after the run.
	fusedRuns uint64
}

// Typed-event kinds handled by Core.OnEvent. Each event carries the token
// of the attempt that scheduled it; a mismatch means the attempt aborted.
const (
	evResume  uint8 = iota // continue runOps from c.resume
	evRestart              // restart the current section's attempt
	evSpin                 // re-read the fallback lock (Listing 1's spin)
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
		c.startAttempt(c.prog[c.secIdx])
	case evSpin:
		c.m.Sys.L1s[c.id].Access(c.m.Lock.Line, false, c.spinFn)
	}
}

type memLine = mem.Line

func newCore(m *Machine, id int, prog Program, st *stats.Core, rng *sim.RNG) *Core {
	c := &Core{m: m, id: id, prog: prog, st: st, rng: rng}
	c.contFn = c.accessDone
	c.spinFn = c.spinCheck
	c.subscribeFn = c.subscribed
	c.finishFn = c.finishAttempt
	c.plainFn = c.plainDone
	m.Sys.L1s[id].SetClient(c)
	return c
}

// reset rebinds the core to a new run (machine reset between runs): a new
// program, a fresh stats sink, and a fresh per-core RNG stream. The staged-
// counter map keeps its buckets (cleared in place, exactly as commits do);
// the machine pointer, tile id, and prebound continuations survive.
func (c *Core) reset(prog Program, st *stats.Core, rng *sim.RNG) {
	c.prog = prog
	c.st = st
	c.rng = rng
	c.secIdx = 0
	c.retries = 0
	c.token = 0
	c.attemptTok = 0
	clear(c.staged)
	c.resume.ops, c.resume.i, c.resume.tok, c.resume.done = nil, 0, 0, nil
	c.fusedRuns = 0
}

func (c *Core) engine() *sim.Engine { return c.m.Engine }
func (c *Core) now() uint64         { return c.m.Engine.Now() }
func (c *Core) tx() *htm.TxState    { return c.m.Sys.L1s[c.id].Tx }

// start begins executing the program.
func (c *Core) start() {
	c.st.StartSegment(stats.CatNonTx, c.now())
	c.nextSection()
}

// nextSection dispatches the next program section.
func (c *Core) nextSection() {
	if c.secIdx >= len(c.prog) {
		c.st.Finish(c.now())
		c.m.coreDone()
		return
	}
	sec := c.prog[c.secIdx]
	switch {
	case sec.Barrier:
		c.st.StartSegment(stats.CatNonTx, c.now())
		c.st.Barriers++
		c.m.Barrier.Arrive(func() { c.advance() })
	case sec.Atomic:
		c.retries = 0
		if c.m.Cfg.Sync == SysCGL {
			c.runCGL(sec)
		} else {
			c.startAttempt(sec)
		}
	default:
		c.st.StartSegment(stats.CatNonTx, c.now())
		c.runOps(sec.Ops, 0, c.token, c.plainFn)
	}
}

// plainDone completes a non-atomic section. A non-transactional RMW becomes
// visible at completion (it has no commit point to defer to).
func (c *Core) plainDone() {
	c.applyStaged()
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
	if !c.m.Cfg.DisableFusion {
		var wait bool
		i0 := i
		// wait=true means a fast hit applied its effects even though the
		// index did not advance, so it still counts as a run. The count
		// feeds the host-side run ledger; it never touches simulated state
		// (DESIGN.md §10).
		if i, wait = c.fuseOps(ops, i, tok, done); i > i0 || wait {
			c.fusedRuns++
		}
		if wait {
			return
		}
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

// fuseOps is the event-fusion fast path (DESIGN.md §10): it executes the
// longest prefix of ops[i:] consisting of compute delays and guaranteed L1
// hits inline, lazily advancing simulated time to each op's completion,
// and returns the index of the first op it could not fuse. The caller
// continues from there on the ordinary event-driven path. When wait is
// true the caller must return instead: an op's completion was handed to the
// event queue (see below) and the continuation resumes through c.resume.
//
// Fusing an op is exact only if its completion time t is strictly earlier
// than every pending event: an event already queued at t carries a lower
// sequence number than anything the slow path would schedule now, so it
// would run first and could observe or change state mid-chain. The loop
// therefore re-checks Engine.PeekNext before each op — and again after
// TryFastHit, because a transactional store hit can itself emit protocol
// traffic (the eager pre-transactional writeback) that lands inside the
// hit-latency window. In that second case the hit's architectural effects
// are already applied, so the op cannot be un-fused; it completes through
// FinishFastHit, which schedules the same typed completion event the slow
// path would have, preserving the exact (when, seq) order.
func (c *Core) fuseOps(ops []Op, i int, tok uint64, done func()) (next int, wait bool) {
	eng := c.engine()
	l1 := c.m.Sys.L1s[c.id]
	hitLat := c.m.Sys.L1Hit
	for i < len(ops) {
		op := ops[i]
		var t uint64 // inline completion time of op
		switch op.Kind {
		case OpCompute:
			t = eng.Now() + op.N
		case OpRead, OpWrite:
			t = eng.Now() + hitLat
		default:
			return i, false // RMW / fault: full machinery required
		}
		if next, ok := eng.PeekNext(); ok && next <= t {
			return i, false // an event would interleave: fall back
		}
		if op.Kind == OpCompute {
			c.tx().InstsRetired += op.N
			eng.AdvanceTo(t)
			i++
			continue
		}
		if !l1.TryFastHit(op.Line, op.Kind == OpWrite) {
			return i, false // miss, upgrade, or queued-behind-MSHR
		}
		if next, ok := eng.PeekNext(); ok && next <= t {
			// The hit emitted traffic inside its own latency window; its
			// effects are applied, so complete it through the event path.
			c.resume.ops, c.resume.i, c.resume.tok, c.resume.done = ops, i+1, tok, done
			l1.FinishFastHit(c.contFn)
			return i, true
		}
		eng.AdvanceTo(t)
		c.tx().InstsRetired++
		i++
	}
	return i, false
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

// --- CGL execution ---------------------------------------------------

func (c *Core) runCGL(sec Section) {
	c.st.StartSegment(stats.CatWaitLock, c.now())
	c.acquire(c.m.Lock, func() {
		c.st.StartSegment(stats.CatLock, c.now())
		c.tx().Mode = htm.Mutex
		body := sec.Body(1)
		c.runOps(body, 0, c.token, func() {
			c.tx().Mode = htm.NonTx
			c.release(c.m.Lock, func() {
				c.applyStaged()
				c.st.LockRuns++
				c.st.Sections++
				c.engine().Progress()
				c.st.StartSegment(stats.CatNonTx, c.now())
				c.advance()
			})
		})
	})
}

// --- HTM execution ---------------------------------------------------

// startAttempt begins (or restarts) a speculative attempt of the section.
func (c *Core) startAttempt(sec Section) {
	if c.retries >= c.m.Sys.HTM.MaxRetries {
		c.fallback(sec)
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
	if tr := c.m.Sys.Tracer; tr.Enabled(trace.CatTx) {
		tr.Emitf(c.id, trace.CatTx, 0, "xbegin section=%d attempt=%d", c.secIdx, c.tx().Attempt)
	}
	if t := c.m.Sys.Telemetry; t != nil {
		t.TxBegin(c.id, c.secIdx, c.tx().Attempt)
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
	c.startAttempt(c.prog[c.secIdx])
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
	ops := c.prog[c.secIdx].Body(c.tx().Attempt)
	c.runOps(ops, 0, c.attemptTok, c.finishFn)
}

// finishAttempt commits the attempt in whatever mode it ended in: HTM
// commit, or HTMLock-mode completion after a successful switch (STL).
func (c *Core) finishAttempt() {
	switch c.tx().Mode {
	case htm.HTM:
		// The functional commit must coincide with the protection drop:
		// CommitTx clears the read/write sets and wakes rejected
		// requesters, so the staged values have to be visible first.
		c.applyStaged()
		c.m.Sys.L1s[c.id].CommitTx()
		c.st.Commits++
		if t := c.m.Sys.Telemetry; t != nil {
			t.TxCommit(c.id, c.secIdx, c.tx().Attempt, c.tx().AttemptStart, false)
		}
		c.st.CloseAs(stats.CatHTM, stats.CatNonTx, c.now())
		c.sectionDone()
	case htm.STL:
		// The transaction switched to HTMLock mode mid-flight; hlend
		// without releasing the fallback lock (Listing 2).
		c.applyStaged()
		c.m.Sys.L1s[c.id].HLEnd()
		c.st.Commits++ // the attempt's work was saved, not wasted
		c.st.SwitchRuns++
		if t := c.m.Sys.Telemetry; t != nil {
			t.TxCommit(c.id, c.secIdx, c.tx().Attempt, c.tx().AttemptStart, true)
		}
		c.st.CloseAs(stats.CatSwitchLock, stats.CatNonTx, c.now())
		c.sectionDone()
	default:
		panic(fmt.Sprintf("cpu: attempt finished in mode %v", c.tx().Mode))
	}
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
	if t := c.m.Sys.Telemetry; t != nil {
		t.TxAbort(c.id, c.secIdx, c.tx().Attempt, c.tx().AttemptStart, cause)
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

// fallback executes the section on the non-speculative path: a TL lock
// transaction under HTMLock, a plain mutex section otherwise.
func (c *Core) fallback(sec Section) {
	if tr := c.m.Sys.Tracer; tr.Enabled(trace.CatTx) {
		tr.Emitf(c.id, trace.CatTx, 0, "fallback section=%d after %d retries", c.secIdx, c.retries)
	}
	c.st.StartSegment(stats.CatWaitLock, c.now())
	c.acquire(c.m.Lock, func() {
		if c.m.Sys.HTM.HTMLock {
			c.m.Sys.L1s[c.id].HLBegin(func() {
				c.st.StartSegment(stats.CatLock, c.now())
				c.tx().BeginAttempt(htm.TL, c.now())
				body := sec.Body(c.tx().Attempt)
				c.runOps(body, 0, c.token, func() {
					// Staged updates become visible before hlend wakes the
					// requesters this lock transaction rejected — otherwise
					// a woken reader could see pre-transaction values while
					// the lock-release access is still in flight.
					c.applyStaged()
					c.m.Sys.L1s[c.id].HLEnd()
					c.release(c.m.Lock, func() {
						c.st.LockRuns++
						c.lockSectionDone()
					})
				})
			})
			return
		}
		c.st.StartSegment(stats.CatLock, c.now())
		c.tx().Mode = htm.Mutex
		body := sec.Body(1)
		c.runOps(body, 0, c.token, func() {
			c.tx().Mode = htm.NonTx
			c.release(c.m.Lock, func() {
				c.st.LockRuns++
				c.lockSectionDone()
			})
		})
	})
}

func (c *Core) lockSectionDone() {
	c.applyStaged()
	c.tx().Reset()
	c.st.Sections++
	c.engine().Progress()
	c.st.StartSegment(stats.CatNonTx, c.now())
	c.advance()
}

// --- lock primitives --------------------------------------------------

// acquire takes a FIFO queued lock. The RMW is modeled by a real store to
// the lock line; a contended caller parks (futex-style, no spin traffic)
// and is handed the lock directly by the releasing core, paying one more
// cache-to-cache transfer on the handover.
func (c *Core) acquire(lk *SpinLock, done func()) {
	if tr := c.m.Sys.Tracer; tr.Enabled(trace.CatLock) {
		tr.Emitf(c.id, trace.CatLock, lk.Line, "lock acquire (held=%v waiters=%d)", lk.Held(), lk.Waiters())
	}
	//lockiller:alloc-ok once per lock section, not per iteration
	c.m.Sys.L1s[c.id].Access(lk.Line, true, func() {
		granted := func() {
			// Ownership handed over: take the lock line (transfer traffic).
			c.m.Sys.L1s[c.id].Access(lk.Line, true, done)
		}
		if lk.acquireOrEnqueue(c.id, granted) {
			done()
		}
	})
}

// release frees the lock with a real store, waking the next waiter.
func (c *Core) release(lk *SpinLock, done func()) {
	if tr := c.m.Sys.Tracer; tr.Enabled(trace.CatLock) {
		tr.Emitf(c.id, trace.CatLock, lk.Line, "lock release (waiters=%d)", lk.Waiters())
	}
	//lockiller:alloc-ok once per lock section, not per iteration
	c.m.Sys.L1s[c.id].Access(lk.Line, true, func() {
		if next := lk.release(c.id); next != nil {
			c.engine().After(1, next)
		}
		done()
	})
}
