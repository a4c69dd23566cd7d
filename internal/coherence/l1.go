package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence/proto"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Client is the CPU-side listener an L1 notifies when its transaction is
// doomed by an external event (conflict loss, reject policy, overflow).
// The L1 has already flash-cleared its transactional state when OnDoom
// runs; the client only schedules the architectural rollback.
type Client interface {
	OnDoom(cause htm.AbortCause)
}

// mshrState tracks a miss request's lifecycle.
type mshrState uint8

const (
	mshrInFlight mshrState = iota
	mshrParked             // rejected and waiting (wake-up or timed retry)
)

// mshr is a miss-status holding register entry: one in-flight or parked
// request per line. A rejected request is "held in the MSHR, marked
// incomplete, and restored to the state before sending" (paper §III-A).
type mshr struct {
	line   mem.Line // first: the MSHR table's key (keyOf)
	write  bool
	txBits bool // set tx metadata on fill
	epoch  uint64
	state  mshrState
	done   func()
	// doneEp is done's guard epoch: done fires only while l1.epoch still
	// equals it. Storing the pair instead of a guard closure keeps the
	// dominant miss path allocation-free (see guard).
	doneEp  uint64
	waiters []func()
	parkSeq uint64 // invalidates stale park timeouts; monotonic across reuse
	freed   bool   // on the free list; guards against double frees
}

// mshrTableCap is the initial MSHR slot count. 64 slots at the 1/2 max load
// factor cover 32 concurrent MSHRs — far beyond what an in-order core with
// one demand miss plus abort residue ever holds.
const mshrTableCap = 64

// L1 is a private L1 cache controller with best-effort HTM support and the
// three LockillerTM mechanisms.
type L1 struct {
	sys  *System
	core int
	arr  *cache.Array
	// mid is the private middle cache of the MESI-Three-Level-HTM variant
	// (nil in the paper's streamlined two-level organization).
	mid *cache.Array
	Tx  *htm.TxState

	client Client
	epoch  uint64 // bumped on every abort; stale callbacks are dropped

	// mshrs maps lines to live MSHRs (see linetable.go): flat and
	// allocation-free in steady state, with an O(1) live count.
	mshrs lineTable[mshr]
	// mshrScratch is reused by sortedMshrs (deterministic iteration);
	// mshrFree recycles resolved MSHRs (one is allocated per miss).
	mshrScratch []*mshr
	mshrFree    []*mshr

	// applyingHLA state (switchingMode, paper Fig. 6): while an HLApply is
	// outstanding, external requests are blocked and queued.
	applying   bool
	blockedExt []*Msg
	// applyCont is the outstanding HLApply's continuation: tlGrantFn or
	// switchFn, prebound at construction. Their state lives in fields — a
	// TL application's completion (tlDone), a switchingMode application's
	// revoked request (sw) — so an application builds no closure.
	applyCont           func(granted bool)
	tlGrantFn, switchFn func(granted bool)
	tlDone              func()
	sw                  switchRetry

	// midCtxFree and midFlushFree recycle the three-level organization's
	// deferred-step payloads (midcache.go).
	midCtxFree   []*midCtx
	midFlushFree []*midFlush

	// wake is the recovery mechanism's wake-up table (Fig. 2): cores whose
	// requests this cache rejected, to be woken at commit/abort.
	wake htm.WakeSet

	// Stats.
	Hits, Misses, MidHits, TxWBs   uint64
	RejectsSent, RejectsReceived   uint64
	NacksSent, WakesSent           uint64
	OverflowEvictions, SwitchTries uint64
	SwitchGrants                   uint64
}

func newL1(sys *System, core int, arena *cache.Arena) *L1 {
	l1 := &L1{
		sys:   sys,
		core:  core,
		arr:   cache.NewArrayIn(arena, sys.L1Size, sys.L1Ways),
		Tx:    &htm.TxState{Core: core, Cfg: sys.HTM},
		mshrs: newLineTable[mshr](mshrTableCap),
	}
	if sys.MidSize > 0 {
		l1.mid = cache.NewArrayIn(arena, sys.MidSize, sys.MidWays)
	}
	l1.tlGrantFn = l1.tlGranted
	l1.switchFn = l1.switchDecided
	return l1
}

// switchRetry is a switchingMode application's state (Fig. 6): the abort
// epoch it was made in, and the revoked request, re-issued on grant with
// its completion done, live in that epoch.
type switchRetry struct {
	ep    uint64
	line  mem.Line
	write bool
	done  func()
}

// reset returns the L1 to its just-constructed state in place (machine
// reset between runs; see System.Reset for the contract). Warm capacity
// survives: the cache arrays keep their backings (generation reset), the
// MSHR table keeps its grown slot count, and the MSHR free list keeps its
// pooled entries — parkSeq deliberately survives, exactly as it does across
// newMshr recycling, because every check against it is an equality. The
// abort epoch restarts at zero so park-retry payload words (epoch<<32|seq)
// rebuild identically to a fresh machine's.
func (l1 *L1) reset() {
	l1.arr.Reset()
	if l1.mid != nil {
		l1.mid.Reset()
	}
	l1.Tx.ResetHard()
	l1.epoch = 0
	l1.mshrs.reset(l1.freeMshr)
	l1.mshrScratch = l1.mshrScratch[:0]
	l1.applying = false
	l1.applyCont = nil
	l1.tlDone = nil
	l1.sw = switchRetry{}
	l1.blockedExt = l1.blockedExt[:0]
	l1.wake.Clear()
	l1.Hits, l1.Misses, l1.MidHits, l1.TxWBs = 0, 0, 0, 0
	l1.RejectsSent, l1.RejectsReceived = 0, 0
	l1.NacksSent, l1.WakesSent = 0, 0
	l1.OverflowEvictions, l1.SwitchTries, l1.SwitchGrants = 0, 0, 0
}

// MidArray exposes the middle cache (nil when two-level) to tests.
func (l1 *L1) MidArray() *cache.Array { return l1.mid }

// SetClient installs the CPU-side doom listener.
func (l1 *L1) SetClient(c Client) { l1.client = c }

// Core returns the core/tile id.
func (l1 *L1) Core() int { return l1.core }

// ProbeClass implements sim.ProbeClasser for self-profiler reports.
func (l1 *L1) ProbeClass() string { return "l1" }

// Array exposes the data array to tests and stats.
func (l1 *L1) Array() *cache.Array { return l1.arr }

// MSHRCount returns the number of live MSHRs (in-flight plus parked) — the
// telemetry MSHR-occupancy probe. O(1): the table keeps the count.
func (l1 *L1) MSHRCount() int { return l1.mshrs.live }

// ParkedRequests returns the number of rejected requests currently held in
// MSHRs awaiting a wake-up or timed retry (diagnostics).
func (l1 *L1) ParkedRequests() int {
	n := 0
	for _, ms := range l1.mshrs.slots {
		if ms != nil && ms.state == mshrParked {
			n++
		}
	}
	return n
}

// send routes a message from this L1 through the System's message pool.
func (l1 *L1) send(v Msg) {
	v.Src = l1.core
	l1.sys.send(v)
}

// sendAfter routes a message d cycles from now. The message is materialized
// eagerly so it never reads protocol state (or a recycled request) at fire
// time.
func (l1 *L1) sendAfter(d uint64, v Msg) {
	v.Src = l1.core
	l1.sys.sendAfter(d, v)
}

// live returns a CPU continuation guarded by epoch ep — one that may fire
// only while l1.epoch equals ep — as a raw continuation for the current
// epoch: done itself if ep is current, else nil. Epochs only grow, so a
// guarded completion can never fire once the epoch has moved, and dropping
// it is exact. Completions travel as (done, ep) pairs, as the MSHR stores
// them, so no guard closure is built.
func (l1 *L1) live(done func(), ep uint64) func() {
	if ep != l1.epoch {
		return nil
	}
	return done
}

// tracking reports whether accesses should set transactional metadata.
func (l1 *L1) tracking() bool { return l1.Tx.InTx() }

// Access performs a load (write=false) or store (write=true) to a line.
// done runs when the access completes; it is dropped if the transaction
// aborts first. The L1 resolves mode (plain / HTM / TL / STL) from the
// shared TxState.
//
// The hit path is allocation-free: completion is a typed engine event
// carrying the access-time epoch, so no guard closure is built. A miss
// stores done raw beside its guard epoch, in the MSHR or the middle cache's
// promote payload; only an access that queues behind another attempt's
// outstanding request builds a closure (the MSHR waiter).
func (l1 *L1) Access(line mem.Line, write bool, done func()) {
	if m := l1.mshrs.lookup(line); m != nil {
		// A request for this line is already outstanding (e.g. issued by a
		// previous, aborted attempt). Re-dispatch when it resolves.
		ep := l1.epoch
		m.waiters = append(m.waiters, func() {
			if l1.epoch == ep {
				l1.Access(line, write, done)
			}
		})
		return
	}
	e := l1.arr.Lookup(line)
	if e != nil && e.State.Valid() {
		if !write || e.State == cache.Exclusive || e.State == cache.Modified {
			l1.Hits++
			l1.hit(e, write, done)
			return
		}
		// Store to a Shared line: upgrade.
		l1.Misses++
		e.State = cache.StoM
		l1.issue(line, true, done, l1.epoch)
		return
	}
	if e != nil {
		panic(fmt.Sprintf("coherence: L1 %d access to transient line %d without MSHR", l1.core, line))
	}
	if me := l1.midLookup(line); me != nil && me.State.Valid() {
		// Three-level: middle-cache hit; promote into the L1.
		l1.Misses++
		l1.MidHits++
		l1.sys.Engine.AfterEvent(l1.sys.MidHit, l1, evL1MidPromote, 0,
			l1.newMidCtx(line, me, write, done, l1.epoch))
		return
	}
	l1.Misses++
	l1.allocateAndIssue(line, write, done, l1.epoch)
}

// Typed-event kinds handled by L1.OnEvent.
const (
	evL1Done       uint8 = iota // a = epoch at access time, p = completion func
	evL1MshrDone                // p = *mshr whose done callback and waiters run
	evL1ParkRetry               // a = epoch<<32 | parkSeq (32 bits each), p = *mshr
	evL1MidPromote              // p = *midCtx: a middle-cache hit moves into the L1
	evL1MidFlush                // p = *midFlush: a forward's deferred flush and reply
)

// OnEvent implements sim.Handler for the L1's allocation-free completions.
func (l1 *L1) OnEvent(kind uint8, a uint64, p any) {
	switch kind {
	case evL1Done:
		if a != l1.epoch {
			return // the requesting attempt aborted; drop the completion
		}
		if fn, ok := p.(func()); ok && fn != nil {
			fn()
		}
	case evL1MshrDone:
		ms := p.(*mshr)
		if ms.done != nil && ms.doneEp == l1.epoch {
			ms.done() // unwrapped continuation: the epoch check replaces the guard closure
		}
		for _, w := range ms.waiters {
			w()
		}
		l1.freeMshr(ms) // already deleted from l1.mshrs by fill/fillFromLocal
	case evL1ParkRetry:
		// The payload word carries the park generation; the mshr pointer
		// stays valid across recycling (the pool retains it), and the
		// identity + epoch + parkSeq checks defuse stale timeouts exactly
		// as the old capturing closure did.
		ms := p.(*mshr)
		if l1.epoch&epochMask == a>>32 && l1.mshrs.lookup(ms.line) == ms &&
			ms.state == mshrParked && ms.parkSeq&epochMask == a&epochMask {
			l1.retry(ms)
		}
	case evL1MidPromote:
		l1.promoteFromMid(p.(*midCtx))
	case evL1MidFlush:
		l1.flushForward(p.(*midFlush))
	}
}

// epochMask truncates the park-retry generation counters to the 32 bits
// that fit beside each other in one event payload word. Both counters
// advance at most once per executed event, so they cannot wrap within a
// feasible run, let alone alias modulo 2^32 while a timeout is in flight.
const epochMask = 1<<32 - 1

// hit completes an access that hit in the L1. done may be unguarded: the
// completion event carries the current epoch and is dropped on mismatch.
func (l1 *L1) hit(e *cache.Entry, write bool, done func()) {
	l1.hitUpdate(e, write)
	l1.finishHit(done)
}

// hitUpdate applies the architectural effects of an L1 hit — state upgrade,
// dirty bit, transactional metadata, and the eager pre-transactional
// writeback — without scheduling the completion. It is shared verbatim by
// the slow (typed-event) and fast (fused inline) hit paths, so the two are
// indistinguishable to the protocol.
func (l1 *L1) hitUpdate(e *cache.Entry, write bool) {
	tx := l1.tracking()
	if write {
		if tx && l1.Tx.Mode == htm.HTM && e.Dirty && !e.TxWrite {
			// Eager version management: the pre-transactional dirty value
			// must reach the LLC before the line joins the write set, so an
			// abort (which drops the line) cannot lose it.
			l1.TxWBs++
			l1.send(Msg{Type: MsgTxWB, Line: e.Line, Dst: l1.sys.HomeBank(e.Line), Requester: l1.core})
		}
		if e.State == cache.Exclusive {
			e.State = cache.Modified
		}
		e.Dirty = true
		if tx && !e.TxWrite {
			e.TxWrite = true
			l1.Tx.WriteLines++
		}
	} else if tx && !e.TxRead {
		e.TxRead = true
		l1.Tx.ReadLines++
	}
}

// finishHit schedules the typed hit-completion event. This is the single
// sanctioned evL1Done scheduling site (enforced by the fusepath analyzer):
// any other hit-completion must either go through here or qualify for
// TryFastHit's inline retirement.
func (l1 *L1) finishHit(done func()) {
	l1.sys.Engine.AfterEvent(l1.sys.L1Hit, l1, evL1Done, l1.epoch, done)
}

// TryFastHit is the coherence half of the event-fusion fast path (DESIGN.md
// §10). If the access is a guaranteed L1 hit — no MSHR outstanding for the
// line, a valid copy present, and (for stores) write permission already held
// — it applies the full hit effects and returns true WITHOUT scheduling the
// completion event; the core then retires the access inline, lazily
// advancing simulated time by the hit latency. Any other case returns false
// with no state touched, and the caller must take the ordinary Access path.
//
// Exactness: the effects applied here are hitUpdate's, at the same cycle
// Access would apply them, and the only events a hit can generate (the
// eager transactional writeback) are sent identically. The caller remains
// responsible for proving via Engine.PeekNext that no pending event fires
// at or before the inline completion time.
func (l1 *L1) TryFastHit(line mem.Line, write bool) bool {
	if l1.mshrs.lookup(line) != nil {
		return false // outstanding request: the access must queue behind it
	}
	e := l1.arr.Lookup(line)
	if e == nil || !e.State.Valid() {
		return false // miss or transient: full machinery required
	}
	if write && e.State != cache.Exclusive && e.State != cache.Modified {
		return false // store to Shared: upgrade request required
	}
	l1.Hits++
	l1.hitUpdate(e, write)
	return true
}

// FinishFastHit completes a TryFastHit through the typed event path —
// bit-identical to the slow hit — for when an event materialized inside the
// hit-latency window (e.g. the hit's own transactional writeback delivery)
// after the hit effects were already applied.
func (l1 *L1) FinishFastHit(done func()) { l1.finishHit(done) }

// allocateAndIssue finds a way for the missing line — possibly triggering
// the capacity-overflow machinery — and sends the request. done and ep
// travel unwrapped (the MSHR stores both), so the common miss costs no
// guard-closure allocation.
func (l1 *L1) allocateAndIssue(line mem.Line, write bool, done func(), ep uint64) {
	v := l1.allocateWay(line, write, done, ep)
	if v == nil {
		return // diverted to the overflow machinery
	}
	st := cache.ItoS
	if write {
		st = cache.ItoM
	}
	l1.arr.Install(v, line, st)
	l1.issue(line, write, done, ep)
}

// allocateWay finds (and frees) an L1 way for the line, returning nil when
// the access was diverted to the overflow machinery.
func (l1 *L1) allocateWay(line mem.Line, write bool, done func(), ep uint64) *cache.Entry {
	if l1.hasMid() {
		return l1.l1VictimOrDemote(line, write, done, ep)
	}
	avoidTx := func(e *cache.Entry) bool { return e.Tx() }
	v := l1.arr.Victim(line, avoidTx)
	if v == nil {
		// Every way in the set holds transactional data: capacity overflow.
		l1.overflow(line, write, done, ep)
		return nil
	}
	if v.State.Valid() {
		l1.evict(v)
	}
	return v
}

// overflow handles a transactional set overflow by consulting the system's
// OverflowPolicy: lock transactions spill a line into the LLC signatures;
// under switchingMode an HTM transaction's first own-allocation overflow
// applies for STL authorization; otherwise it aborts with a capacity cause.
func (l1 *L1) overflow(line mem.Line, write bool, done func(), ep uint64) {
	switch l1.sys.HTM.Overflow.Decide(l1.Tx.Mode, l1.Tx.TriedSwitch, false) {
	case htm.OverflowSpill:
		v := l1.arr.AnyVictim(line)
		if v == nil {
			panic(fmt.Sprintf("coherence: L1 %d set wedged for line %d", l1.core, line))
		}
		l1.spillToSignature(v)
		st := cache.ItoS
		if write {
			st = cache.ItoM
		}
		l1.arr.Install(v, line, st)
		l1.issue(line, write, done, ep)
	case htm.OverflowSwitch:
		// Fig. 6: revoke the request, enter applyingHLA, apply to the LLC
		// for STL authorization, and re-issue the revoked request after the
		// decision (retrying it as the lock-mode spill path on grant).
		l1.trySwitch(line, write, done, ep)
	default:
		if l1.Tx.Mode != htm.HTM {
			panic(fmt.Sprintf("coherence: L1 %d overflow outside a transaction (mode %v)", l1.core, l1.Tx.Mode))
		}
		l1.abortTx(htm.CauseOverflow)
	}
}

// spillToSignature evicts a lock-transaction line into the LLC overflow
// signatures (paper Fig. 5 (2)).
func (l1 *L1) spillToSignature(v *cache.Entry) {
	l1.OverflowEvictions++
	if o := l1.sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindSigSpill, Core: l1.core, Line: v.Line, Read: v.TxRead, Write: v.TxWrite})
	}
	l1.sys.Arbiter.RecordOverflow(l1.core, v.Line, v.TxRead, v.TxWrite)
	l1.send(Msg{Type: MsgSigAdd, Line: v.Line, Dst: l1.sys.ArbiterTile,
		Requester: l1.core, Write: v.TxWrite})
	l1.evictLine(v)
}

// evict writes back or silently drops a non-transactional victim.
func (l1 *L1) evict(v *cache.Entry) {
	if v.Tx() {
		panic(fmt.Sprintf("coherence: L1 %d evicting transactional line %d outside the overflow path", l1.core, v.Line))
	}
	l1.evictLine(v)
}

func (l1 *L1) evictLine(v *cache.Entry) {
	switch v.State {
	case cache.Modified:
		l1.send(Msg{Type: MsgPutM, Line: v.Line, Dst: l1.sys.HomeBank(v.Line), Requester: l1.core})
	case cache.Exclusive:
		l1.send(Msg{Type: MsgPutE, Line: v.Line, Dst: l1.sys.HomeBank(v.Line), Requester: l1.core})
	case cache.Shared:
		// Silent drop; the directory tolerates stale sharers.
	default:
		panic(fmt.Sprintf("coherence: evicting line %d in state %v", v.Line, v.State))
	}
	v.State = cache.Invalid
	v.Dirty = false
	v.TxRead = false
	v.TxWrite = false
}

// newMshr returns a reset MSHR from the free list. parkSeq survives reuse
// so a park timeout captured against a previous incarnation can never match
// a future parking of the recycled entry.
func (l1 *L1) newMshr() *mshr {
	if n := len(l1.mshrFree); n > 0 {
		m := l1.mshrFree[n-1]
		l1.mshrFree = l1.mshrFree[:n-1]
		seq, w := m.parkSeq, m.waiters[:0]
		*m = mshr{parkSeq: seq, waiters: w}
		return m
	}
	return new(mshr)
}

// freeMshr recycles an MSHR. Callers must have removed it from l1.mshrs and
// run (or dropped) its done callback and waiters first; stale park timeouts
// are defused by the identity + parkSeq checks.
func (l1 *L1) freeMshr(ms *mshr) {
	if ms.freed {
		panic(fmt.Sprintf("coherence: L1 %d double free of MSHR for line %d", l1.core, ms.line))
	}
	ms.freed = true
	ms.done = nil
	for i := range ms.waiters {
		ms.waiters[i] = nil // drop closure references; capacity is reused
	}
	ms.waiters = ms.waiters[:0]
	l1.mshrFree = append(l1.mshrFree, ms)
}

// issue creates the MSHR and sends the coherence request with the current
// priority piggybacked (the recovery mechanism's user-defined data). done is
// stored unwrapped with its guard epoch ep; the completion site (evL1MshrDone)
// performs the epoch check the guard closure used to.
func (l1 *L1) issue(line mem.Line, write bool, done func(), ep uint64) {
	m := l1.newMshr()
	m.line, m.write, m.txBits, m.epoch = line, write, l1.tracking(), l1.epoch
	m.done, m.doneEp = done, ep
	l1.mshrs.insert(m)
	l1.sendReq(m)
}

func (l1 *L1) sendReq(m *mshr) {
	t := MsgGetS
	if m.write {
		t = MsgGetM
	}
	if o := l1.sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindRequest, Core: l1.core, Line: m.line, Msg: t.String(),
			Prio: l1.Tx.Priority(), Mode: l1.Tx.Mode})
	}
	l1.send(Msg{Type: t, Line: m.line, Dst: l1.sys.HomeBank(m.line),
		Requester: l1.core, Prio: l1.Tx.Priority(), ReqMode: l1.Tx.Mode})
}

// Receive is the L1's message input. It owns m and dispatches it through the
// l1.receive table: each transition's action sequence either recycles the
// message (free-msg) or moves its ownership to a store (queue-external; the
// drain loop re-enters Receive and the normal rules apply).
func (l1 *L1) Receive(m *Msg) {
	s := l1Ready
	if l1.applying {
		s = l1Applying
	}
	l1RecvTable.Dispatch(s, proto.Event(m.Type), l1MsgCtx{l1: l1, m: m}, l1.sys.fired[tblL1Recv])
}

// queueExternal parks an external request while an HLApply is outstanding
// (applyingHLA, Fig. 6); message ownership moves to the queue.
func (l1 *L1) queueExternal(m *Msg) {
	l1.blockedExt = append(l1.blockedExt, m)
}

// applyDecision resolves an outstanding HLApply with the arbiter's verdict.
// The message is freed before the continuation runs (it may re-enter the
// allocator through the retried request).
func (l1 *L1) applyDecision(m *Msg) {
	if l1.applyCont == nil {
		panic(fmt.Sprintf("coherence: L1 %d stray %v", l1.core, m.Type))
	}
	cont := l1.applyCont
	l1.applyCont = nil
	granted := m.Type == MsgHLGrant
	l1.sys.free(m)
	cont(granted)
}

// fill completes a miss: the l1.fill table settles the transient into its
// stable state (the To column is authoritative — the dispatch result is
// assigned to the entry), and its actions unblock the directory and release
// the CPU and any waiters. A fill for a line in a stable state is a
// declared protocol violation; dispatch panics with the recorded reason.
func (l1 *L1) fill(m *Msg) {
	ms := l1.mshrs.remove(m.Line)
	if ms == nil {
		panic(fmt.Sprintf("coherence: L1 %d fill without MSHR for line %d", l1.core, m.Line))
	}
	e := l1.arr.Lookup(m.Line)
	if e == nil {
		panic(fmt.Sprintf("coherence: L1 %d fill for uncached line %d", l1.core, m.Line))
	}
	evt := fillDataS
	if m.Type == MsgDataE {
		evt = fillDataE
	}
	e.State = cache.State(l1FillTable.Dispatch(proto.State(e.State), evt,
		l1FillCtx{l1: l1, m: m, e: e, ms: ms}, l1.sys.fired[tblL1Fill]))
}

// fillTxBits applies transactional metadata to a freshly filled line, but
// only if the requesting attempt is still the live one; a post-abort fill
// installs the line non-transactionally.
func (l1 *L1) fillTxBits(ms *mshr, e *cache.Entry) {
	if !ms.txBits || ms.epoch != l1.epoch || !l1.tracking() {
		return
	}
	if ms.write {
		if !e.TxWrite {
			e.TxWrite = true
			l1.Tx.WriteLines++
		}
	} else if !e.TxRead {
		e.TxRead = true
		l1.Tx.ReadLines++
	}
}

// fillUnblock tells the home directory the requester reached a stable state
// (the SS transition of Fig. 3).
func (l1 *L1) fillUnblock(m *Msg) {
	l1.send(Msg{Type: MsgUnblock, Line: m.Line, Dst: l1.sys.HomeBank(m.Line),
		Requester: l1.core, Excl: m.Type == MsgDataE})
}

// fillComplete releases the CPU and any waiters after the L1 access latency.
func (l1 *L1) fillComplete(ms *mshr) {
	l1.sys.Engine.AfterEvent(l1.sys.L1Hit, l1, evL1MshrDone, 0, ms)
}

// rejected handles a withdrawn request (recovery mechanism / signature
// hit): restore the pre-request state and apply the reject policy.
func (l1 *L1) rejected(m *Msg) {
	ms := l1.mshrs.lookup(m.Line)
	if ms == nil {
		panic(fmt.Sprintf("coherence: L1 %d reject without MSHR for line %d", l1.core, m.Line))
	}
	l1.RejectsReceived++
	if o := l1.sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindRejected, Core: l1.core, Line: m.Line, Mode: m.RejectorMode})
	}
	// Restore the array state from before the request (paper Fig. 2 (7)).
	e := l1.arr.Lookup(m.Line)
	if e != nil && e.State.Transient() {
		if e.State == cache.StoM {
			e.State = cache.Shared // the S copy survived arbitration
		} else {
			e.State = cache.Invalid
			e.TxRead = false
			e.TxWrite = false
		}
	}
	if ms.epoch != l1.epoch {
		// The requesting attempt already aborted; drop the request but let
		// newer waiters re-dispatch.
		l1.resolveParked(ms)
		return
	}
	dec := l1.sys.HTM.Conflict.Rejected(l1.Tx.Mode)
	if o := l1.sys.Obs; o != nil {
		// The loser's involvement is its request flavor: the line was being
		// pulled into the read or write set when the rejector defeated it.
		o.Event(trace.Event{Kind: trace.KindConflict, Core: l1.core, Line: m.Line, Peer: m.Rejector,
			Read: !ms.write, Write: ms.write, Aborted: dec.Abort})
	}
	if dec.Abort {
		l1.resolveParked(ms)
		l1.abortTx(l1.causeFromRejector(m))
		return
	}
	l1.park(ms, dec.Timeout)
}

// causeFromRejector classifies the abort cause when a rejected transaction
// gives up (SelfAbort policy).
func (l1 *L1) causeFromRejector(m *Msg) htm.AbortCause {
	if m.Line == l1.sys.LockLine {
		return htm.CauseMutex
	}
	return l1.sys.HTM.Conflict.RejectorCause(m.RejectorMode)
}

// park holds a rejected request in the MSHR and schedules a retry after the
// timeout; an earlier wake-up retries sooner.
func (l1 *L1) park(ms *mshr, timeout uint64) {
	ms.state = mshrParked
	ms.parkSeq++
	l1.sys.Engine.AfterEvent(timeout, l1, evL1ParkRetry,
		l1.epoch<<32|ms.parkSeq&epochMask, ms)
}

// wakeParked retries every parked request (wake-up message received).
// Iteration is in line order: Go map order is randomized, and the retry
// order assigns event sequence numbers, so it must be deterministic.
func (l1 *L1) wakeParked() {
	for _, ms := range l1.sortedMshrs() {
		if ms.state == mshrParked {
			l1.retry(ms)
		}
	}
}

// sortedMshrs returns the MSHRs in ascending line order, reusing a scratch
// slice so steady-state iteration does not allocate (sort.Slice would box
// its comparator; see TestSortedMshrsNoAlloc). The table's slot order is
// already deterministic (it depends only on the insertion history), but the
// drain order is pinned to line order so it is also self-evidently
// independent of hash layout and growth history. Insertion sort is exact:
// lines are unique table keys and the population is MSHR-sized (a handful).
func (l1 *L1) sortedMshrs() []*mshr {
	s := l1.mshrScratch[:0]
	for _, ms := range l1.mshrs.slots {
		if ms == nil {
			continue
		}
		i := len(s)
		s = append(s, ms)
		for ; i > 0 && s[i-1].line > ms.line; i-- {
			s[i] = s[i-1]
		}
		s[i] = ms
	}
	l1.mshrScratch = s
	return s
}

// retry re-sends a parked request. The array entry was restored on reject,
// so the allocation must be redone.
func (l1 *L1) retry(ms *mshr) {
	if ms.epoch != l1.epoch {
		l1.resolveParked(ms)
		return
	}
	ms.state = mshrInFlight
	e := l1.arr.Lookup(ms.line)
	if e != nil && e.State.Valid() {
		if e.State == cache.Shared && ms.write {
			e.State = cache.StoM
			l1.sendReq(ms)
			return
		}
		if !ms.write || e.State != cache.Shared {
			// Someone else's fill (or a racing wake) satisfied us already.
			l1.fillFromLocal(ms, e)
			return
		}
	}
	// Re-allocate a way; the set may have changed since the reject.
	if me := l1.midLookup(ms.line); me != nil && me.State.Valid() {
		l1.mshrs.remove(ms.line)
		// The MSHR is recycled before the promote fires, so the continuation
		// and its guard epoch move to the promote's payload.
		l1.sys.Engine.AfterEvent(l1.sys.MidHit, l1, evL1MidPromote, 0,
			l1.newMidCtx(ms.line, me, ms.write, ms.done, ms.doneEp))
		for _, w := range ms.waiters {
			w()
		}
		l1.freeMshr(ms)
		return
	}
	v := l1.allocateWay(ms.line, ms.write, ms.done, ms.doneEp)
	if v == nil {
		// Diverted to the overflow machinery, which may have synchronously
		// issued a fresh MSHR for the same line (lock-mode signature spill):
		// only drop the table entry if it is still ours.
		if l1.mshrs.lookup(ms.line) == ms {
			l1.mshrs.remove(ms.line)
		}
		for _, w := range ms.waiters {
			w()
		}
		l1.freeMshr(ms)
		return
	}
	st := cache.ItoS
	if ms.write {
		st = cache.ItoM
	}
	l1.arr.Install(v, ms.line, st)
	l1.sendReq(ms)
}

// fillFromLocal completes a parked request that a later access already
// satisfied.
func (l1 *L1) fillFromLocal(ms *mshr, e *cache.Entry) {
	l1.mshrs.remove(ms.line)
	if ms.write {
		if e.State == cache.Exclusive {
			e.State = cache.Modified
		}
		e.Dirty = true
	}
	if ms.txBits && ms.epoch == l1.epoch && l1.tracking() {
		if ms.write && !e.TxWrite {
			e.TxWrite = true
			l1.Tx.WriteLines++
		} else if !ms.write && !e.TxRead {
			e.TxRead = true
			l1.Tx.ReadLines++
		}
	}
	l1.sys.Engine.AfterEvent(l1.sys.L1Hit, l1, evL1MshrDone, 0, ms)
}

// resolveParked drops a dead MSHR, re-dispatching any waiters.
func (l1 *L1) resolveParked(ms *mshr) {
	l1.mshrs.remove(ms.line)
	for _, w := range ms.waiters {
		w()
	}
	l1.freeMshr(ms)
}

// forwarded handles FwdGetS/FwdGetM: the conflict-detection and resolution
// core of the protocol (paper Fig. 4). It classifies the held copy by its
// transactional bits and dispatches through the l1.forward table; conflict
// arbitration, rejection, and the victim abort are the table's guarded rows.
func (l1 *L1) forwarded(m *Msg) {
	e := l1.arr.Peek(m.Line)
	inL1 := e != nil && e.State.Valid()
	if !inL1 {
		e = l1.midLookup(m.Line) // three-level: the middle cache may hold it
		if e != nil && !e.State.Valid() {
			e = nil
		}
	}
	s := fwdNone
	switch {
	case e == nil:
	case e.TxWrite:
		s = fwdTxWrite
	case e.Tx():
		s = fwdTxRead
	default:
		s = fwdPlain
	}
	evt := fwdLoad
	if m.Type == MsgFwdGetM {
		evt = fwdStore
	}
	l1FwdTable.Dispatch(s, evt, l1FwdCtx{l1: l1, m: m, e: e, inL1: inL1}, l1.sys.fired[tblL1Fwd])
}

// nack tells the directory we no longer hold the line (transaction abort or
// eviction race): serve from the LLC and move ownership — the NACK flow of
// Fig. 3.
func (l1 *L1) nack(line mem.Line, requester int) {
	l1.NacksSent++
	l1.send(Msg{Type: MsgNack, Line: line, Dst: l1.sys.HomeBank(line), Requester: requester})
}

// fwdReject withdraws a toxic forwarded request: this transactional owner
// won arbitration and keeps its copy (Fig. 4).
func (l1 *L1) fwdReject(m *Msg) {
	l1.RejectsSent++
	l1.noteRejected(m)
	if o := l1.sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindRejectFwd, Core: l1.core, Line: m.Line, Msg: m.Type.String(),
			Peer: m.Requester, Prio: l1.Tx.Priority(), PeerPrio: m.Prio})
	}
	l1.sendAfter(l1.arbDelay(), Msg{Type: MsgRejectFwd, Line: m.Line, Dst: l1.sys.HomeBank(m.Line),
		Requester: m.Requester, RejectorMode: l1.Tx.Mode, Rejector: l1.core})
}

// dropAfterConflict invalidates the conflicting line after this owner lost
// arbitration and aborted. The abort drops write-set lines; a conflicting
// line we only read (e.g. an FwdGetM over a TxRead Exclusive line) survives
// it and must be invalidated here — the requester becomes the owner.
func (l1 *L1) dropAfterConflict(e *cache.Entry) {
	if e.State.Valid() {
		e.State = cache.Invalid
		e.Dirty = false
		e.TxRead = false
		e.TxWrite = false
	}
}

// respondForward performs the ordinary ownership transfer / downgrade for a
// non-conflicting forward.
func (l1 *L1) respondForward(m *Msg, e *cache.Entry, inL1 bool) {
	if inL1 && l1.hasMid() {
		// The three-level odd design: flush the line from the L1 to the
		// middle cache before answering — even for plain loads — paying
		// the middle-cache latency and losing the L1 copy (§IV-A). The
		// step carries a value copy: the pooled message is recycled
		// before the flush runs.
		l1.sys.Engine.AfterEvent(l1.sys.MidHit, l1, evL1MidFlush, 0, l1.newMidFlush(m, e))
		return
	}
	l1.forwardRespond(e, m.Line, m.Requester, m.Type == MsgFwdGetS)
}

// forwardRespond downgrades (FwdGetS) or surrenders (FwdGetM) the held copy
// and ships the owner data to the home bank. A method rather than a closure
// inside respondForward: the two-level synchronous path runs once per
// ownership transfer and must not allocate.
func (l1 *L1) forwardRespond(e *cache.Entry, line mem.Line, req int, getS bool) {
	if getS {
		e.State = cache.Shared
		e.Dirty = false
	} else {
		wasTx := e.Tx()
		e.State = cache.Invalid
		e.Dirty = false
		if wasTx {
			panic("coherence: non-conflicting FwdGetM over a transactional line")
		}
	}
	l1.send(Msg{Type: MsgOwnerData, Line: line, Dst: l1.sys.HomeBank(line), Requester: req})
}

// invalidated handles Inv: either a GetM over sharers or an LLC
// back-invalidation recall (Requester == -1). It classifies the held copy
// and dispatches through the l1.invalidate table.
func (l1 *L1) invalidated(m *Msg) {
	e := l1.arr.Peek(m.Line)
	if e == nil || (!e.State.Valid() && e.State != cache.StoM) {
		e = l1.midLookup(m.Line) // three-level: invalidate the middle-cache copy
		if e != nil && !e.State.Valid() {
			e = nil
		}
	}
	s := invNone
	switch {
	case e == nil:
	case e.Tx() && l1.Tx.InTx():
		s = invTx
	default:
		s = invPlain
	}
	evt := invExternal
	if m.Requester == -1 {
		evt = invRecall
	}
	l1InvTable.Dispatch(s, evt, l1InvCtx{l1: l1, m: m, e: e}, l1.sys.fired[tblL1Inv])
}

// invAckDir acknowledges an invalidation to whichever bank fanned it out —
// the home directory, or a cluster collector in two-level mode (Inv.Src is
// the home bank whenever the directory is flat, so this is the same
// destination the pre-cluster code computed via HomeBank).
func (l1 *L1) invAckDir(m *Msg) {
	l1.send(Msg{Type: MsgInvAck, Line: m.Line, Dst: m.Src, Requester: m.Requester})
}

// invReject keeps this transactional sharer's copy: it won arbitration
// against the invalidating requester. Like invAckDir, the reply returns to
// the fanning bank (home or cluster collector).
func (l1 *L1) invReject(m *Msg) {
	l1.RejectsSent++
	l1.noteRejected(m)
	l1.sendAfter(l1.arbDelay(), Msg{Type: MsgInvReject, Line: m.Line, Dst: m.Src,
		Requester: m.Requester, RejectorMode: l1.Tx.Mode, Rejector: l1.core})
}

// recallOverflow resolves an LLC back-invalidation recall of transactional
// data through the overflow policy (external=true: switchingMode never fires
// on a recall): lock transactions spill the line into the signatures; HTM
// transactions abort with a capacity cause (read-set survivors deliberately
// stay — the directory entry dies with the eviction and tolerates the stale
// copy).
func (l1 *L1) recallOverflow(e *cache.Entry) {
	switch l1.sys.HTM.Overflow.Decide(l1.Tx.Mode, l1.Tx.TriedSwitch, true) {
	case htm.OverflowSpill:
		l1.spillToSignature(e)
	case htm.OverflowAbort:
		l1.abortTx(htm.CauseOverflow)
	default:
		panic(fmt.Sprintf("coherence: L1 %d switch decision on a recall", l1.core))
	}
}

// dropForInv invalidates a line for an Inv, preserving an in-flight
// upgrade's MSHR by demoting StoM to ItoM.
func (l1 *L1) dropForInv(e *cache.Entry) {
	if e.State == cache.StoM {
		e.State = cache.ItoM
		e.TxRead = false
		e.TxWrite = false
		return
	}
	e.State = cache.Invalid
	e.Dirty = false
	e.TxRead = false
	e.TxWrite = false
}

// ownerWins arbitrates a conflict between this (transactional) owner and
// the requester described by the message (Fig. 4's green logic). The
// universal rules are applied here — an irrevocable lock transaction always
// wins, and a non-speculative requester always defeats a speculative owner
// (best-effort HTM's strong isolation) — then the ConflictPolicy decides
// the speculative-vs-speculative case.
func (l1 *L1) ownerWins(m *Msg) bool {
	if l1.Tx.Mode.Lock() {
		return true
	}
	switch m.ReqMode {
	case htm.NonTx, htm.Mutex:
		return false
	}
	return l1.sys.HTM.Conflict.OwnerWins(
		htm.ConflictSide{Mode: l1.Tx.Mode, Prio: l1.Tx.Priority(), Core: l1.core},
		htm.ConflictSide{Mode: m.ReqMode, Prio: m.Prio, Core: m.Requester})
}

// arbDelay is the extra arbitration latency the owner's cache controller
// pays before sending a reject (LosaTM charges one cycle).
func (l1 *L1) arbDelay() uint64 { return l1.sys.HTM.Conflict.ArbDelay() }

// victimCause classifies the abort cause when this transaction loses a
// conflict to the message's requester.
func (l1 *L1) victimCause(m *Msg) htm.AbortCause {
	if m.Line == l1.sys.LockLine {
		return htm.CauseMutex
	}
	return htm.CauseFor(m.ReqMode)
}

// abortVictim aborts this transaction after it lost arbitration to the
// requester in m, recording conflict provenance (winner, loser, line, and
// the victim's read/write-set membership) before the abort flash-clears the
// transactional bits.
func (l1 *L1) abortVictim(m *Msg, e *cache.Entry) {
	if o := l1.sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindConflict, Core: l1.core, Line: m.Line, Peer: m.Requester,
			Read: e != nil && e.TxRead, Write: e != nil && e.TxWrite, Aborted: true})
	}
	l1.abortTx(l1.victimCause(m))
}

// noteRejected records the rejected requester for a wake-up at commit or
// abort time. Recording is skipped when the conflict policy says the
// requester will never park waiting for a wake-up.
func (l1 *L1) noteRejected(m *Msg) {
	if !l1.sys.HTM.Conflict.RecordsWake(m.ReqMode) {
		return
	}
	l1.wake.Add(m.Requester)
}

// sendWakes drains the wake-up table (checked at transaction commit and
// abort, paper Fig. 2 (8)).
func (l1 *L1) sendWakes() {
	l1.wake.Drain(func(core int) {
		l1.WakesSent++
		l1.send(Msg{Type: MsgWakeUp, Dst: core})
	})
}

// abortTx flash-clears the transactional state: speculative lines are
// dropped (the directory learns lazily via NACKs), parked requests die,
// rejected requesters are woken, and the CPU is notified to roll back.
func (l1 *L1) abortTx(cause htm.AbortCause) {
	if l1.Tx.Doomed {
		return // already aborting; first cause wins
	}
	if l1.Tx.Mode != htm.HTM {
		panic(fmt.Sprintf("coherence: abort in mode %v", l1.Tx.Mode))
	}
	if o := l1.sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindAbort, Core: l1.core, Cause: cause, Attempt: l1.Tx.Attempt,
			Reads: l1.Tx.ReadLines, Writes: l1.Tx.WriteLines})
	}
	l1.Tx.Doom(cause)
	l1.Tx.Mode = htm.NonTx // hardware leaves transactional mode on abort
	l1.epoch++
	l1.arr.ClearTx(true)
	l1.midClearTx(true)
	for _, ms := range l1.sortedMshrs() {
		if ms.state == mshrParked {
			l1.resolveParked(ms)
		}
		// In-flight entries stay: their responses settle the line and
		// unblock the directory; the stale CPU callback is epoch-guarded.
	}
	l1.sendWakes()
	if l1.client != nil {
		l1.client.OnDoom(cause)
	}
}

// AbortLocal aborts the running HTM transaction for a core-internal reason
// (exception, explicit xabort, reject policy).
func (l1 *L1) AbortLocal(cause htm.AbortCause) { l1.abortTx(cause) }

// CommitTx commits the running HTM transaction: transactional metadata is
// flash-cleared (written lines stay valid and dirty) and rejected
// requesters are woken.
func (l1 *L1) CommitTx() {
	if l1.Tx.Mode != htm.HTM {
		panic(fmt.Sprintf("coherence: commit in mode %v", l1.Tx.Mode))
	}
	if o := l1.sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindCommit, Core: l1.core, Attempt: l1.Tx.Attempt,
			Reads: l1.Tx.ReadLines, Writes: l1.Tx.WriteLines})
	}
	l1.arr.ClearTx(false)
	l1.midClearTx(false)
	l1.Tx.Mode = htm.NonTx
	l1.sendWakes()
	l1.sys.Engine.Progress()
}

// trySwitch runs the switchingMode application (Fig. 6): block external
// requests, ask the LLC arbiter for STL authorization, and either continue
// as a lock transaction or abort with the capacity cause (switchDecided).
// The revoked access — line, write, and its completion done guarded by
// ep — waits in l1.sw for the decision; it is re-issued only if the epoch
// has not moved, so its completion is stored live (see live).
func (l1 *L1) trySwitch(line mem.Line, write bool, done func(), ep uint64) {
	l1.SwitchTries++
	l1.Tx.TriedSwitch = true
	l1.applying = true
	l1.sw = switchRetry{ep: l1.epoch, line: line, write: write, done: l1.live(done, ep)}
	l1.applyCont = l1.switchFn
	l1.send(Msg{Type: MsgHLApply, Dst: l1.sys.ArbiterTile, Requester: l1.core, ReqMode: htm.STL})
}

// switchDecided resolves a switchingMode application (switchFn): leave
// applyingHLA, act on the verdict, then dispatch the external requests that
// queued meanwhile.
func (l1 *L1) switchDecided(granted bool) {
	sw := l1.sw
	l1.sw = switchRetry{}
	l1.applying = false
	blocked := l1.blockedExt
	l1.blockedExt = nil
	switch {
	case l1.epoch != sw.ep:
		// The transaction died while applying (e.g. a rejected request
		// self-aborted). Give back a granted authorization.
		if granted {
			l1.send(Msg{Type: MsgHLRelease, Dst: l1.sys.ArbiterTile, Requester: l1.core})
		}
	case granted:
		l1.SwitchGrants++
		if o := l1.sys.Obs; o != nil {
			o.Event(trace.Event{Kind: trace.KindSwitchGrant, Core: l1.core})
		}
		l1.Tx.Mode = htm.STL
		l1.allocateAndIssue(sw.line, sw.write, sw.done, sw.ep)
	default:
		if o := l1.sys.Obs; o != nil {
			o.Event(trace.Event{Kind: trace.KindSwitchDeny, Core: l1.core})
		}
		l1.abortTx(htm.CauseOverflow)
	}
	for _, b := range blocked {
		l1.Receive(b)
	}
}

// HLBegin enters HTMLock (TL) mode: the caller already holds the fallback
// lock; the LLC arbiter is consulted so a live STL transaction is waited
// out (paper §III-C). done runs once authorization is held (tlGranted).
func (l1 *L1) HLBegin(done func()) {
	if l1.sys.Arbiter == nil {
		panic("coherence: HLBegin without HTMLock")
	}
	if l1.applyCont != nil {
		panic("coherence: HLBegin while an application is outstanding")
	}
	l1.tlDone = done
	l1.applyCont = l1.tlGrantFn
	l1.send(Msg{Type: MsgHLApply, Dst: l1.sys.ArbiterTile, Requester: l1.core, ReqMode: htm.TL})
}

// tlGranted resolves a TL application (tlGrantFn): HLBegin's completion
// runs once authorization is held.
func (l1 *L1) tlGranted(granted bool) {
	if !granted {
		panic("coherence: TL application denied")
	}
	done := l1.tlDone
	l1.tlDone = nil
	done()
}

// HLEnd leaves HTMLock mode (hlend): transactional metadata is cleared
// with written lines kept (a lock transaction is irrevocable, its stores
// are real), the LLC signatures are cleared, and signature-rejected cores
// are woken by the arbiter.
func (l1 *L1) HLEnd() {
	if !l1.Tx.Mode.Lock() {
		panic(fmt.Sprintf("coherence: HLEnd in mode %v", l1.Tx.Mode))
	}
	if o := l1.sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindHLEnd, Core: l1.core, Mode: l1.Tx.Mode,
			Reads: l1.Tx.ReadLines, Writes: l1.Tx.WriteLines})
	}
	l1.arr.ClearTx(false)
	l1.midClearTx(false)
	l1.Tx.Mode = htm.NonTx
	l1.sendWakes()
	l1.send(Msg{Type: MsgHLRelease, Dst: l1.sys.ArbiterTile, Requester: l1.core})
	l1.sys.Engine.Progress()
}
