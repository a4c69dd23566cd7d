package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence/proto"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/trace"
)

// dirState is the stable directory state of a line.
type dirState uint8

const (
	dirI  dirState = iota // no L1 copies
	dirS                  // one or more read-only sharers
	dirEM                 // single owner holding E or M
)

// dirLine is the directory's bookkeeping for one line: stable state plus
// the blocking-protocol transient (busy + queued requests) the paper's
// Fig. 3 describes (the directory leaves its transient state only after
// the unblock message).
type dirLine struct {
	line    mem.Line // first: the directory table's key (keyOf)
	state   dirState
	owner   int
	sharers htm.CoreSet // which cores hold S copies

	busy  bool
	queue []*Msg
	pend  *pending
}

// pending tracks an in-flight request being serviced for a busy line.
type pending struct {
	req          *Msg
	invAcksLeft  int
	rejected     bool
	rejectorMode htm.Mode
	rejector     int // rejecting core, for conflict provenance
	evictAcks    int // back-invalidation in progress when > 0
	evictCont    func()
}

func (d *dirLine) addSharer(c int)     { d.sharers.Add(c) }
func (d *dirLine) dropSharer(c int)    { d.sharers.Drop(c) }
func (d *dirLine) sharerCount() int    { return d.sharers.Count() }
func (d *dirLine) isSharer(c int) bool { return d.sharers.Contains(c) }

// Bank is one tile's slice of the shared LLC plus its directory controller.
// The bank at tile 0 additionally hosts the centralized HTMLock arbiter
// (paper §III-C: "our approach of LLC's authorization seamlessly extends
// to distributed LLCs by adding a lightweight centralized arbiter module").
type Bank struct {
	sys *System
	id  int
	arr *cache.Array
	dir lineTable[dirLine]

	// dirFree recycles untracked dirLines, refilled a slab of dirSlabSize
	// at a time, so steady-state directory churn — lines tracked, back-
	// invalidated, re-tracked — allocates nothing. pendFree recycles
	// pending trackers (one is allocated per serviced request, which is hot
	// enough to pool).
	dirFree  []*dirLine
	pendFree []*pending

	// collects holds this bank's open cluster-collector rounds (two-level
	// directory only, see cluster.go).
	collects []clusterCollect

	// Stats.
	Requests, Rejections, Nacks, MemFetches, BackInvals uint64
	ClusterRounds                                       uint64
}

// dirTableCap is the initial directory slot count. The working set a bank
// tracks is its share of the workload footprint; 256 slots cover 128 live
// lines before the first (deterministic) doubling.
const dirTableCap = 256

const dirSlabSize = 64

func newBank(sys *System, id int, sizeBytes, ways int, arena *cache.Arena) *Bank {
	return &Bank{
		sys: sys,
		id:  id,
		arr: cache.NewArrayIn(arena, sizeBytes, ways),
		dir: newLineTable[dirLine](dirTableCap),
	}
}

// reset returns the bank to its just-constructed state in place (machine
// reset between runs; see System.Reset for the contract). The LLC array
// keeps its backing (generation reset), the directory table keeps its grown
// capacity and recycles its live lines, and the free lists stay warm.
func (b *Bank) reset() {
	b.arr.Reset()
	b.dir.reset(b.freeDirLine)
	b.collects = b.collects[:0]
	b.Requests, b.Rejections, b.Nacks, b.MemFetches, b.BackInvals = 0, 0, 0, 0, 0
	b.ClusterRounds = 0
}

// frame converts a line homed at this bank into its bank-local frame
// number. Interleaved lines are multiples of the core count apart; without
// this compression only 1/Cores of the bank's sets would ever be used.
func (b *Bank) frame(l mem.Line) mem.Line {
	return mem.Line(uint64(l) / uint64(b.sys.Cores))
}

// unframe recovers the original line from a bank-local frame.
func (b *Bank) unframe(f mem.Line) mem.Line {
	return mem.Line(uint64(f)*uint64(b.sys.Cores) + uint64(b.id))
}

// line returns the line's directory entry, tracking it (idle, from the free
// list) if the directory is not yet.
func (b *Bank) line(l mem.Line) *dirLine {
	if d := b.dir.lookup(l); d != nil {
		return d
	}
	if len(b.dirFree) == 0 {
		slab := make([]dirLine, dirSlabSize)
		for i := range slab {
			b.dirFree = append(b.dirFree, &slab[i])
		}
	}
	d := b.dirFree[len(b.dirFree)-1]
	b.dirFree = b.dirFree[:len(b.dirFree)-1]
	queue := d.queue[:0] // keep the queue's backing array across reuse
	d.sharers.Clear()    // ditto the sharer set's extension words (>64 cores)
	*d = dirLine{line: l, owner: -1, queue: queue, sharers: d.sharers}
	b.dir.insert(d)
	return d
}

// untrack deletes the line's directory entry, if any, recycling it.
func (b *Bank) untrack(l mem.Line) {
	if d := b.dir.remove(l); d != nil {
		b.freeDirLine(d)
	}
}

func (b *Bank) freeDirLine(d *dirLine) { b.dirFree = append(b.dirFree, d) }

// newPending returns a zeroed pending tracker from the bank's free list.
func (b *Bank) newPending() *pending {
	if n := len(b.pendFree); n > 0 {
		p := b.pendFree[n-1]
		b.pendFree = b.pendFree[:n-1]
		*p = pending{}
		return p
	}
	return new(pending)
}

// freePending recycles a pending tracker once the line reopens (or its
// back-invalidation completes) and nothing references it anymore.
func (b *Bank) freePending(p *pending) { b.pendFree = append(b.pendFree, p) }

// send dispatches a message from this bank through the System's message
// pool and over the NoC.
func (b *Bank) send(v Msg) {
	v.Src = b.id
	b.sys.send(v)
}

// sendAfter dispatches a message d cycles from now (directory decision and
// LLC access latencies). The message is materialized eagerly so the pending
// request it answers can be recycled without a read-after-free.
func (b *Bank) sendAfter(d uint64, v Msg) {
	v.Src = b.id
	b.sys.sendAfter(d, v)
}

// Typed-event kinds handled by Bank.OnEvent.
const (
	evBankReceive  uint8 = iota // p = *Msg: re-enter Receive (post-eviction restart)
	evBankAllocate              // a = line, p = cont func(): memory fetch matured
)

// ProbeClass implements sim.ProbeClasser for self-profiler reports.
func (b *Bank) ProbeClass() string { return "bank" }

// OnEvent implements sim.Handler for deferred message re-dispatch and
// matured memory fetches.
func (b *Bank) OnEvent(kind uint8, a uint64, p any) {
	switch kind {
	case evBankReceive:
		b.Receive(p.(*Msg))
	case evBankAllocate:
		var cont func()
		if p != nil {
			cont = p.(func())
		}
		b.allocate(mem.Line(a), cont)
	}
}

// Receive is the bank's message input, invoked by the NoC after delivery.
// It owns m and dispatches it through the bank.receive table: each
// transition's action sequence either recycles the message (free-msg) or
// moves its ownership to a store (the blocked queue, or the pending-request
// slot — recycled at reopen).
func (b *Bank) Receive(m *Msg) { b.dispatch(m, false) }

// dispatch classifies the line's blocking transient and runs the table.
// queued marks a re-dispatch from the blocked queue (drainQueue), which
// skips the request count already charged at first receipt.
func (b *Bank) dispatch(m *Msg, queued bool) {
	if b.sys.clustered() {
		if cs, ok := b.clusterRole(m); ok {
			bankClusterTable.Dispatch(proto.State(cs), proto.Event(m.Type),
				clusterCtx{b: b, m: m}, b.sys.fired[tblBankCluster])
			return
		}
	}
	d := b.dir.lookup(m.Line)
	s := bkIdle
	if d != nil && d.busy {
		s = bkBusy
		if d.pend.evictCont != nil {
			s = bkEvict
		}
	}
	bankRecvTable.Dispatch(s, proto.Event(m.Type), bankMsgCtx{b: b, m: m, queued: queued, d: d},
		b.sys.fired[tblBankRecv])
}

// service begins working on a GetS/GetM for an idle line.
func (b *Bank) service(d *dirLine, m *Msg) {
	// HTMLock: the LLC checks every external request against the overflow
	// signatures of the active lock transaction (paper Fig. 5 (3)).
	if b.sys.Arbiter != nil {
		write := m.Type == MsgGetM
		wouldBeExclusive := d.state == dirI ||
			(d.state == dirEM && d.owner == m.Requester)
		if b.sys.Arbiter.SigConflict(m.Requester, m.Line, write, wouldBeExclusive) {
			b.Rejections++
			if o := b.sys.Obs; o != nil {
				o.Event(trace.Event{Kind: trace.KindSigReject, Core: b.id, Line: m.Line, Peer: m.Requester})
			}
			b.sys.Arbiter.NoteRejected(m.Requester)
			b.sendAfter(b.sys.DirLatency, Msg{Type: MsgReject, Line: m.Line, Dst: m.Src,
				Requester: m.Requester, RejectorMode: b.sys.Arbiter.HolderMode(),
				Rejector: b.sys.Arbiter.Holder()})
			b.sys.free(m)
			return
		}
	}
	d.busy = true
	d.pend = b.newPending()
	d.pend.req = m // ownership moves to the pending slot
	if b.arr.Lookup(b.frame(m.Line)) != nil {
		// LLC hit: continue synchronously. Building the deferred
		// continuation unconditionally showed up as one allocation per
		// serviced request in whole-run profiles; now only the memory
		// fetch (rare) pays for a closure.
		b.serviceWithData(d, m)
		return
	}
	b.MemFetches++
	// The closure payload is accepted: memory-fetch path only, and the
	// continuation needs both the directory line and the request.
	b.sys.Engine.AfterEvent(b.sys.MemLatency, b, evBankAllocate, uint64(m.Line),
		func() { b.serviceWithData(d, m) })
}

// serviceWithData continues once the LLC holds the line, dispatching the
// stable-state service decision through the bank.service table.
func (b *Bank) serviceWithData(d *dirLine, m *Msg) {
	evt := svcLoad
	if m.Type == MsgGetM {
		evt = svcStore
	}
	bankSvcTable.Dispatch(proto.State(d.state), evt, bankSvcCtx{b: b, d: d, m: m},
		b.sys.fired[tblBankSvc])
}

// fanoutInv invalidates every sharer but the requester (GetM over sharers);
// the guard guarantees at least one target. Iteration is strictly ascending
// by core id (CoreSet.Next), matching the old full 0..Cores scan's send
// order bit for bit.
func (b *Bank) fanoutInv(d *dirLine, m *Msg) {
	if b.sys.clustered() {
		b.fanoutInvClustered(d, m)
		return
	}
	n := 0
	for c, ok := d.sharers.Next(-1); ok; c, ok = d.sharers.Next(c) {
		if c == m.Requester {
			continue
		}
		n++
		b.send(Msg{Type: MsgInv, Line: m.Line, Dst: c,
			Requester: m.Requester, Prio: m.Prio, ReqMode: m.ReqMode, Write: true})
	}
	d.pend.invAcksLeft = n
}

// fwdToOwner forwards the request to the current owner, piggybacking the
// requester's priority and mode for conflict arbitration.
func (b *Bank) fwdToOwner(d *dirLine, m *Msg) {
	fwd := MsgFwdGetS
	if m.Type == MsgGetM {
		fwd = MsgFwdGetM
	}
	b.send(Msg{Type: fwd, Line: m.Line, Dst: d.owner,
		Requester: m.Requester, Prio: m.Prio, ReqMode: m.ReqMode,
		Write: m.Type == MsgGetM})
}

// sendData sends the final data response for the pending request after the
// LLC access latency. The directory stays busy until the unblock arrives.
func (b *Bank) sendData(d *dirLine, t MsgType) {
	m := d.pend.req
	b.sendAfter(b.sys.LLCHit, Msg{Type: t, Line: m.Line, Dst: m.Src, Requester: m.Requester})
}

// reject closes a pending request with a reject response (the recovery
// mechanism's withdrawn-request path: Fig. 2 step 6) and reopens the line.
// rejector names the winning core for conflict provenance.
func (b *Bank) reject(d *dirLine, mode htm.Mode, rejector int) {
	m := d.pend.req
	b.Rejections++
	b.sendAfter(b.sys.DirLatency, Msg{Type: MsgReject, Line: m.Line, Dst: m.Src,
		Requester: m.Requester, RejectorMode: mode, Rejector: rejector})
	b.reopen(d)
}

// reopen clears the busy state, recycles the serviced request (its last
// read — the data/reject response — was materialized eagerly), and
// dispatches the next queued request.
func (b *Bank) reopen(d *dirLine) {
	if d.pend != nil {
		if d.pend.req != nil {
			b.sys.free(d.pend.req)
		}
		b.freePending(d.pend)
	}
	d.busy = false
	d.pend = nil
	b.drainQueue(d)
}

// drainQueue re-dispatches parked requests through the receive table until
// the line goes busy again or the queue empties — the single queue-drain
// path shared by reopen and every other unblocking site.
func (b *Bank) drainQueue(d *dirLine) {
	for len(d.queue) > 0 && !d.busy {
		m := d.queue[0]
		d.queue = d.queue[1:]
		b.dispatch(m, true)
	}
}

// takeOwnerData accepts the owner's data: the owner downgraded to S (GetS,
// staying a sharer) or invalidated itself (GetM grant).
func (b *Bank) takeOwnerData(d *dirLine, m *Msg) {
	b.fillLLC(m.Line, nil)
	if d.pend.req.Type == MsgGetS {
		old := d.owner
		d.state = dirS
		d.owner = -1
		d.sharers.Clear()
		d.addSharer(old)
		b.sendData(d, MsgDataS)
		return
	}
	d.state = dirI
	d.owner = -1
	d.sharers.Clear()
	b.sendData(d, MsgDataE)
}

// ownerNacked serves the pending request from the LLC: the owner invalidated
// itself (transaction abort or eviction race) and the requester will take
// ownership (Fig. 3).
func (b *Bank) ownerNacked(d *dirLine, m *Msg) {
	b.Nacks++
	if o := b.sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindNack, Core: b.id, Line: m.Line, Src: m.Src, Dst: d.pend.req.Requester})
	}
	d.state = dirI
	d.owner = -1
	d.sharers.Clear()
	b.sendData(d, MsgDataE)
}

// ownerRejected withdraws the toxic request: the owner won the conflict and
// keeps its state untouched (Fig. 4).
func (b *Bank) ownerRejected(d *dirLine, m *Msg) {
	b.reject(d, m.RejectorMode, m.Rejector)
}

// collectInvAck records one sharer's invalidation for a GetM over sharers.
func (b *Bank) collectInvAck(d *dirLine, m *Msg) {
	d.dropSharer(m.Src)
	b.finishInvRound(d)
}

// collectInvReject records a sharer that kept its copy (won arbitration).
func (b *Bank) collectInvReject(d *dirLine, m *Msg) {
	d.pend.rejected = true
	d.pend.rejectorMode = m.RejectorMode
	d.pend.rejector = m.Rejector
	b.finishInvRound(d)
}

// finishInvRound closes the invalidation round once every sharer answered:
// any rejection withdraws the request (the innocently invalidated sharers
// stay invalid — conservative; the rejecting sharers keep their copies),
// otherwise exclusive data is granted.
func (b *Bank) finishInvRound(d *dirLine) {
	d.pend.invAcksLeft--
	if d.pend.invAcksLeft > 0 {
		return
	}
	if d.pend.rejected {
		b.reject(d, d.pend.rejectorMode, d.pend.rejector)
		return
	}
	b.sendData(d, MsgDataE)
}

// commitUnblock finalizes the pending request: the requester reached a
// stable state, so the directory commits the new owner/sharer map and
// reopens the line (the SS transition of Fig. 3).
func (b *Bank) commitUnblock(d *dirLine, m *Msg) {
	if m.Excl {
		d.state = dirEM
		d.owner = m.Src
		d.sharers.Clear()
	} else {
		d.state = dirS
		d.owner = -1
		d.addSharer(m.Src)
	}
	b.reopen(d)
}

// handlePut processes an eviction notice.
func (b *Bank) handlePut(d *dirLine, m *Msg) {
	if d.state != dirEM || d.owner != m.Src {
		// Stale Put: the core lost ownership while the Put was in flight
		// (it already answered the racing forward with a Nack). Drop it.
		return
	}
	if m.Type == MsgPutM {
		b.fillLLC(m.Line, nil)
	}
	d.state = dirI
	d.owner = -1
	d.sharers.Clear()
}

// arbiter returns the HTMLock arbiter hosted at this bank's tile, panicking
// on arbitration traffic in a configuration without one.
func (b *Bank) arbiter() *htm.Arbiter {
	a := b.sys.Arbiter
	if a == nil {
		panic("coherence: arbiter message without HTMLock")
	}
	return a
}

// arbApply handles an HLApply at the arbiter bank: an atomic grant-or-deny
// for switchingMode applications (Fig. 6), or a waited-out grant for a TL
// application (the caller holds the fallback lock; it may still have to wait
// out an active STL transaction).
func (b *Bank) arbApply(m *Msg) {
	a := b.arbiter()
	core := m.Requester
	if m.ReqMode == htm.STL {
		t := MsgHLDeny
		if a.ApplySTL(core) {
			t = MsgHLGrant
		}
		b.sendAfter(b.sys.DirLatency, Msg{Type: t, Dst: core, Requester: core})
		return
	}
	a.ApplyTL(core, func() {
		b.sendAfter(b.sys.DirLatency, Msg{Type: MsgHLGrant, Dst: core, Requester: core})
	})
}

// arbRelease handles an HLRelease (hlend) at the arbiter bank.
func (b *Bank) arbRelease(m *Msg) {
	b.arbiter().Release(m.Requester)
}

// sigBandwidth accounts for a SigAdd's NoC bandwidth. The shared signature
// state was already updated synchronously at the evicting L1 (modeling
// replicated signature registers), so there is nothing else to do.
func (b *Bank) sigBandwidth() {
	_ = b.arbiter()
}

// fillLLC refreshes (or allocates) the LLC copy of a line on a writeback.
func (b *Bank) fillLLC(l mem.Line, cont func()) {
	if e := b.arr.Lookup(b.frame(l)); e != nil {
		e.Dirty = true
		if cont != nil {
			cont()
		}
		return
	}
	b.allocate(l, cont)
}

// allocate finds a victim way for the line, running the back-invalidation
// flow when inclusion forces eviction of a line with live L1 copies.
func (b *Bank) allocate(l mem.Line, cont func()) {
	// The array stores bank-local frames; protection predicates look up
	// the directory by the original line.
	protected := func(e *cache.Entry) bool {
		d := b.dir.lookup(b.unframe(e.Line))
		if d == nil {
			return false
		}
		if d.busy {
			return true
		}
		// Never evict lines plausibly owned by the active lock transaction.
		if b.sys.Arbiter != nil && b.sys.Arbiter.Holder() >= 0 {
			h := b.sys.Arbiter.Holder()
			if d.owner == h || d.isSharer(h) {
				return true
			}
		}
		return false
	}
	avoid := func(e *cache.Entry) bool {
		if protected(e) {
			return true
		}
		d := b.dir.lookup(b.unframe(e.Line))
		return d != nil && d.state != dirI
	}
	f := b.frame(l)
	if v := b.arr.Victim(f, avoid); v != nil {
		b.arr.Install(v, f, cache.Modified)
		if cont != nil {
			cont()
		}
		return
	}
	// Every way holds a line with L1 copies (or is protected): back-
	// invalidate the least bad choice.
	v := b.arr.Victim(f, protected)
	if v == nil {
		v = b.arr.AnyVictim(f)
	}
	if v == nil {
		panic(fmt.Sprintf("coherence: bank %d cannot allocate line %d (set wedged)", b.id, l))
	}
	b.backInvalidate(b.unframe(v.Line), func() {
		b.arr.Install(v, f, cache.Modified)
		if cont != nil {
			cont()
		}
	})
}

// backInvalidate recalls all L1 copies of a line being evicted from the
// inclusive LLC, then deletes its directory entry and continues.
func (b *Bank) backInvalidate(l mem.Line, cont func()) {
	d := b.dir.lookup(l)
	if d == nil || (d.state == dirI && !d.busy) {
		b.untrack(l)
		cont()
		return
	}
	if d.busy {
		panic("coherence: back-invalidating a busy line")
	}
	b.BackInvals++
	if o := b.sys.Obs; o != nil {
		o.Event(trace.Event{Kind: trace.KindBackInv, Core: b.id, Line: l})
	}
	// Recall targets: the owner under dirEM, every sharer under dirS —
	// sent in ascending core order either way (CoreSet.Next), matching
	// the old full 0..Cores scan bit for bit.
	n := d.sharerCount()
	if d.state == dirEM {
		n = 1
	}
	if n == 0 {
		b.untrack(l)
		cont()
		return
	}
	d.busy = true
	d.pend = b.newPending()
	d.pend.evictAcks = n
	d.pend.evictCont = cont
	if d.state == dirEM {
		b.send(Msg{Type: MsgInv, Line: l, Dst: d.owner, Requester: -1, ReqMode: htm.NonTx})
		return
	}
	for c, ok := d.sharers.Next(-1); ok; c, ok = d.sharers.Next(c) {
		b.send(Msg{Type: MsgInv, Line: l, Dst: c, Requester: -1, ReqMode: htm.NonTx})
	}
}

// collectEvictAck collects back-invalidation acks. L1s may not reject an LLC
// recall (lock-transaction lines are shielded by victim selection; HTM
// transactions abort with a capacity cause instead) — an InvReject in the
// evicting state is a declared protocol violation in the receive table.
func (b *Bank) collectEvictAck(d *dirLine, m *Msg) {
	d.pend.evictAcks--
	if d.pend.evictAcks > 0 {
		return
	}
	cont := d.pend.evictCont
	queue := d.queue
	b.freePending(d.pend)
	b.untrack(m.Line)
	cont()
	// Requests that queued behind the eviction restart from scratch; each
	// queued message's ownership moves to its re-dispatch event.
	for _, q := range queue {
		b.sys.Engine.AfterEvent(1, b, evBankReceive, 0, q)
	}
}
