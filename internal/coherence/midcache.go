package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence/proto"
	"repro/internal/mem"
)

// This file implements the private middle cache of the MESI-Three-Level-HTM
// protocol — the ARM-team gem5 baseline the paper started from and replaced
// (§IV-A): "this protocol ... adds a private intermediate-level cache to
// simplify transactional data maintenance in the L1 cache. It introduces
// some odd designs, such as invalidating data from the L1 cache by flushing
// it to the middle cache even when the other cores try to load data."
//
// With Params.MidSize > 0 each tile gains a private, L1-exclusive middle
// cache:
//
//   - L1 misses probe the middle cache before the directory (MidHit cost);
//   - L1 evictions demote into the middle cache instead of writing back;
//   - transactional L1 overflows demote into the middle cache (its whole
//     capacity bounds the read/write sets — the "simplified transactional
//     data maintenance");
//   - external forwards that hit the L1 first flush the line to the middle
//     cache — even plain loads — paying MidHit before responding and losing
//     the L1 copy (the odd design the paper removed).
//
// The directory is oblivious: the L1+middle pair is one coherence node.

// hasMid reports whether this L1 has a middle cache.
func (l1 *L1) hasMid() bool { return l1.mid != nil }

// midLookup returns the middle-cache entry for the line, or nil.
func (l1 *L1) midLookup(line mem.Line) *cache.Entry {
	if l1.mid == nil {
		return nil
	}
	return l1.mid.Lookup(line)
}

// promoteFromMid moves a middle-cache hit into the L1 (the reverse fill),
// then completes the access, dispatching through the mid.promote table.
// Transactional metadata survives the move. The promote fires MidHit cycles
// after the hit was observed (evL1MidPromote), so the slot is revalidated
// here: a dead entry (abort) or one reused for a different line dispatches
// as the synthetic stale state and the access is re-resolved from scratch.
//
// The dispatch takes a copy, so the payload is recycled first. Its guarded
// completion becomes a raw one for the current epoch (live): every action
// pairs it with that epoch before any abort can move it.
func (l1 *L1) promoteFromMid(p *midCtx) {
	c := *p
	l1.freeMidCtx(p)
	c.done = l1.live(c.done, c.ep)
	evt := midLoad
	if c.write {
		evt = midStore
	}
	s := midStale
	if c.me.State.Valid() && c.me.Line == c.line {
		s = proto.State(c.me.State)
	}
	midPromoteTable.Dispatch(s, evt, c, l1.sys.fired[tblMidPromote])
}

// newMidCtx returns a promote payload from the L1's free list, carrying the
// access's completion done raw with its guard epoch ep.
func (l1 *L1) newMidCtx(line mem.Line, me *cache.Entry, write bool, done func(), ep uint64) *midCtx {
	var c *midCtx
	if n := len(l1.midCtxFree); n > 0 {
		c = l1.midCtxFree[n-1]
		l1.midCtxFree = l1.midCtxFree[:n-1]
	} else {
		c = new(midCtx)
	}
	*c = midCtx{l1: l1, line: line, me: me, write: write, done: done, ep: ep}
	return c
}

// freeMidCtx recycles a promote payload once its event has copied it.
func (l1 *L1) freeMidCtx(c *midCtx) {
	*c = midCtx{}
	l1.midCtxFree = append(l1.midCtxFree, c)
}

// upgradeThroughMid handles a store over a Shared middle-cache line: leave
// the data behind and run the ordinary upgrade path; the line logically
// moves to the L1 as StoM.
func (l1 *L1) upgradeThroughMid(me *cache.Entry, done func()) {
	line := me.Line
	txR, txW := me.TxRead, me.TxWrite
	me.State = cache.Invalid
	me.TxRead, me.TxWrite = false, false
	v := l1.l1VictimOrDemote(line, true, done, l1.epoch)
	if v == nil {
		return // overflow path took over (or aborted)
	}
	l1.arr.Install(v, line, cache.StoM)
	e := l1.arr.Peek(line)
	e.TxRead = txR
	e.TxWrite = txW
	l1.issue(line, true, done, l1.epoch)
}

// moveToL1 transfers a middle-cache line into the L1 in its current state
// and completes the access as a hit. The caller (the mid.promote table) has
// already revalidated the entry, so the line is live here.
func (l1 *L1) moveToL1(me *cache.Entry, write bool, done func()) {
	line, st, dirty := me.Line, me.State, me.Dirty
	txR, txW := me.TxRead, me.TxWrite
	me.State = cache.Invalid
	me.Dirty = false
	me.TxRead, me.TxWrite = false, false
	v := l1.l1VictimOrDemote(line, write, done, l1.epoch)
	if v == nil {
		return
	}
	l1.arr.Install(v, line, st)
	e := l1.arr.Peek(line)
	e.Dirty = dirty
	e.TxRead = txR
	e.TxWrite = txW
	l1.hit(e, write, done)
}

// l1VictimOrDemote finds an L1 way for a new line, demoting the victim to
// the middle cache. Returns nil if the access was diverted to the overflow
// machinery (every L1 way transactional AND the middle-cache set full of
// transactional lines).
// done and its guard epoch ep travel to the overflow machinery, which may
// defer the issue.
func (l1 *L1) l1VictimOrDemote(line mem.Line, write bool, done func(), ep uint64) *cache.Entry {
	avoidTx := func(e *cache.Entry) bool { return e.Tx() }
	v := l1.arr.Victim(line, avoidTx)
	if v == nil {
		// All ways transactional: in the three-level design, demote a
		// transactional line into the middle cache instead of aborting.
		v = l1.arr.AnyVictim(line)
		if v == nil {
			panic(fmt.Sprintf("coherence: L1 %d set wedged for line %d", l1.core, line))
		}
		if !l1.demoteToMid(v) {
			// The middle cache is itself full of transactional data:
			// genuine capacity overflow.
			l1.overflow(line, write, done, ep)
			return nil
		}
		return v
	}
	if v.State.Valid() {
		if !l1.demoteToMid(v) {
			// Non-tx victims always demote (mid victim selection evicts
			// non-tx mid lines first); reaching here means the mid set is
			// full of tx lines and the victim is non-tx: evict the victim
			// to the directory instead.
			l1.evictLine(v)
		}
	}
	return v
}

// demoteToMid installs an L1 victim into the middle cache, evicting a
// middle-cache victim to the directory if needed. Returns false when the
// line cannot be placed (middle set full of transactional lines) — for a
// transactional victim that means capacity overflow. Lock transactions
// (TL/STL) never overflow: they spill a transactional middle-cache line
// into the LLC signatures to make room.
func (l1 *L1) demoteToMid(v *cache.Entry) bool {
	avoidTx := func(e *cache.Entry) bool { return e.Tx() }
	mv := l1.mid.Victim(v.Line, avoidTx)
	if mv == nil {
		if !l1.Tx.Mode.Lock() {
			return false
		}
		mv = l1.mid.AnyVictim(v.Line)
		if mv == nil {
			panic(fmt.Sprintf("coherence: L1 %d middle set wedged for line %d", l1.core, v.Line))
		}
		l1.spillToSignature(mv)
	}
	if mv.State.Valid() {
		l1.evictLine(mv) // middle-cache eviction goes to the directory
	}
	l1.mid.Install(mv, v.Line, v.State)
	me := l1.mid.Peek(v.Line)
	me.Dirty = v.Dirty
	me.TxRead = v.TxRead
	me.TxWrite = v.TxWrite
	v.State = cache.Invalid
	v.Dirty = false
	v.TxRead = false
	v.TxWrite = false
	return true
}

// midFlush is the payload of evL1MidFlush: the forward being answered.
type midFlush struct {
	m Msg // value copy of the recycled pooled message
}

// newMidFlush returns a flush payload from the L1's free list.
func (l1 *L1) newMidFlush(m *Msg) *midFlush {
	var f *midFlush
	if n := len(l1.midFlushFree); n > 0 {
		f = l1.midFlushFree[n-1]
		l1.midFlushFree = l1.midFlushFree[:n-1]
	} else {
		f = new(midFlush)
	}
	f.m = *m
	return f
}

// freeMidFlush recycles a flush payload once its event has copied it.
func (l1 *L1) freeMidFlush(f *midFlush) {
	l1.midFlushFree = append(l1.midFlushFree, f)
}

// flushForward answers a forward that hit the L1 MidHit cycles after it
// arrived (respondForward): the line flushes to the middle cache and the
// reply goes out from there. The payload is copied and recycled first.
//
// The line is looked up again rather than through the way the forward hit:
// in the MidHit window an abort or an eviction may have dropped it, or the
// L1 may have given its way to another line and demoted it to the middle
// cache. The flush answers from wherever the node now holds the line, as
// the l1.forward table answers a forward that finds it there, and NACKs
// only when the node holds no copy. Both other choices break the protocol:
// answering through the reused way downgrades a line the forward never
// named, and a NACK while the middle cache keeps an E/M copy lets the
// directory grant the requester ownership beside that copy.
func (l1 *L1) flushForward(p *midFlush) {
	m := p.m
	l1.freeMidFlush(p)
	line, req, getS := m.Line, m.Requester, m.Type == MsgFwdGetS
	e, inL1 := l1.holding(line)
	if e == nil {
		// The line left the node while the flush was in flight (abort or
		// eviction).
		l1.nack(line, req)
		return
	}
	if e.TxWrite || (e.Tx() && !getS) {
		// The line joined a transaction during the flush delay, so the
		// no-conflict classification that routed us here is stale.
		// Re-arbitrate as the l1.forward table would have.
		if l1.Tx.InTx() {
			if l1.ownerWins(&m) {
				l1.fwdReject(&m)
				return
			}
			l1.abortVictim(&m, e)
			l1.dropAfterConflict(e)
			l1.nack(line, req)
			return
		}
		// Speculative bits without a live transaction are leftovers of an
		// attempt that already ended; scrub them before the downgrade
		// rather than hand them to the middle cache.
		e.TxRead, e.TxWrite = false, false
	}
	if !inL1 {
		// Already in the middle cache, where the flush would have put it.
		l1.forwardRespond(e, line, req, getS)
		return
	}
	if me := l1.midFlushForForward(e); me != nil {
		l1.forwardRespond(me, line, req, getS)
		return
	}
	// Flush could not place the line; respond in place.
	l1.forwardRespond(e, line, req, getS)
}

// midFlushForForward implements the odd design: an external forward that
// hits the L1 flushes the line to the middle cache first (even for loads),
// invalidating the L1 copy. Returns the middle-cache entry to respond
// from, or nil if the flush could not place the line (respond from the L1
// entry directly as a graceful fallback).
func (l1 *L1) midFlushForForward(e *cache.Entry) *cache.Entry {
	if !l1.demoteToMid(e) {
		return nil
	}
	return l1.mid.Peek(e.Line)
}

// midClearTx clears transactional metadata in the middle cache
// (invalidating speculative writes when aborting).
func (l1 *L1) midClearTx(invalidateWrites bool) {
	if l1.mid == nil {
		return
	}
	l1.mid.ClearTx(invalidateWrites)
}
