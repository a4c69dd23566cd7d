package coherence

// This file declares the protocol transition tables: the L1, directory-bank,
// and middle-cache controllers dispatch their message handling through
// declarative (state × event → guard, actions, next-state) tables in the
// style of gem5's SLICC, built on internal/coherence/proto.
//
// The split of responsibilities:
//
//   - tables.go declares WHAT the protocol does: states, events, guards,
//     action sequences, and the (state, event) pairs that are protocol
//     violations;
//   - l1.go / dir.go / midcache.go keep HOW as small named methods — the
//     actions — so the message-pool ownership and typed-event rules
//     (DESIGN.md §7) are untouched;
//   - proto does the dispatch, the exhaustiveness validation
//     (TestProtocolTablesComplete), the per-transition fired counters
//     (lockillersim -transitions), and the doc rendering (cmd/protodoc,
//     DESIGN.md §8).
//
// Guards are side-effect-free by contract. In particular every cache lookup
// an action sequence needs is resolved by the thin classifier shims in the
// controllers before dispatch — Lookup refreshes LRU and Peek does not, so
// each classifier preserves the exact Lookup/Peek choice of the pre-table
// code (bit-for-bit determinism of the golden cycle counts depends on it).
//
// The tables are compiled in init rather than as package-level initializer
// expressions: actions call controller methods that dispatch back through
// the tables, which Go's initializer dependency analysis reports as an
// initialization cycle. Function bodies are exempt from that analysis.

//go:generate go run repro/cmd/protodoc -doc ../../DESIGN.md

import (
	"repro/internal/cache"
	"repro/internal/coherence/proto"
	"repro/internal/mem"
	"repro/internal/stats"
)

// act and when cut the literal noise out of the table declarations.
func act[C any](name string, do func(C)) proto.Action[C] {
	return proto.Action[C]{Name: name, Do: do}
}

func when[C any](name string, ok func(C) bool) proto.Guard[C] {
	return proto.Guard[C]{Name: name, Ok: ok}
}

// onMsg maps a wire message type to its table event code (the tables that
// dispatch on raw messages use the full MsgType space as their event space).
func onMsg(t MsgType) proto.Event { return proto.Event(t) }

// cst maps a cache line state to its table state code (the fill and promote
// tables use the cache.State space directly).
func cst(s cache.State) proto.State { return proto.State(s) }

// forbid appends one Impossible declaration per (state, event) pair.
func forbid(dst []proto.Impossible, states []proto.State, events []proto.Event, why string) []proto.Impossible {
	for _, s := range states {
		for _, e := range events {
			dst = append(dst, proto.Impossible{From: s, On: e, Why: why})
		}
	}
	return dst
}

// --- shared name spaces ----------------------------------------------------

// msgEvents names the full MsgType space, index-aligned with the MsgType
// constants (TestMsgEventNames pins the alignment).
var msgEvents = []string{
	"GetS", "GetM", "PutM", "PutE", "TxWB", "FwdGetS", "FwdGetM", "Inv",
	"OwnerData", "Nack", "RejectFwd", "InvAck", "InvReject", "DataS", "DataE",
	"Reject", "Unblock", "WakeUp", "HLApply", "HLGrant", "HLDeny", "HLRelease", "SigAdd",
	"ClInv", "ClInvDone",
}

// cacheStates names the cache.State space, index-aligned with its constants.
var cacheStates = []string{"I", "S", "E", "M", "I->S", "I->M", "S->M"}

// bankBound / l1Bound partition the message types by consumer; each side
// declares the other's types impossible. TestMsgRoutingMatchesTables pins
// this partition against Msg.toBank.
var bankBound = []proto.Event{
	onMsg(MsgGetS), onMsg(MsgGetM), onMsg(MsgPutM), onMsg(MsgPutE), onMsg(MsgTxWB),
	onMsg(MsgOwnerData), onMsg(MsgNack), onMsg(MsgRejectFwd), onMsg(MsgInvAck),
	onMsg(MsgInvReject), onMsg(MsgUnblock), onMsg(MsgHLApply), onMsg(MsgHLRelease),
	onMsg(MsgSigAdd), onMsg(MsgClInv), onMsg(MsgClInvDone),
}

var l1Bound = []proto.Event{
	onMsg(MsgFwdGetS), onMsg(MsgFwdGetM), onMsg(MsgInv), onMsg(MsgDataS),
	onMsg(MsgDataE), onMsg(MsgReject), onMsg(MsgWakeUp), onMsg(MsgHLGrant),
	onMsg(MsgHLDeny),
}

// --- states, events, and dispatch contexts ---------------------------------

// The L1's top-level state is the applyingHLA flag (switchingMode, paper
// Fig. 6): while an HLApply is outstanding, external requests queue instead
// of dispatching.
const (
	l1Ready proto.State = iota
	l1Applying
)

var l1RecvStates = []string{"ready", "applyingHLA"}

type l1MsgCtx struct {
	l1 *L1
	m  *Msg
}

// Fill settlement events: which flavor of data answered the miss.
const (
	fillDataS proto.Event = iota
	fillDataE
)

var fillEvents = []string{"DataS", "DataE"}

type l1FillCtx struct {
	l1 *L1
	m  *Msg
	e  *cache.Entry
	ms *mshr
}

// Forward-conflict classification: what kind of copy the owner holds.
const (
	fwdNone proto.State = iota
	fwdPlain
	fwdTxRead
	fwdTxWrite
)

var fwdStates = []string{"no-copy", "plain", "tx-read", "tx-write"}

const (
	fwdLoad proto.Event = iota
	fwdStore
)

var fwdEvents = []string{"FwdGetS", "FwdGetM"}

type l1FwdCtx struct {
	l1   *L1
	m    *Msg
	e    *cache.Entry
	inL1 bool
}

// Invalidation classification: external GetM-driven Inv vs LLC recall.
const (
	invNone proto.State = iota
	invPlain
	invTx
)

var invStates = []string{"no-copy", "plain", "tx"}

const (
	invExternal proto.Event = iota
	invRecall
)

var invEvents = []string{"Inv", "Recall"}

type l1InvCtx struct {
	l1 *L1
	m  *Msg
	e  *cache.Entry
}

// The directory bank's blocking transient (paper Fig. 3): idle, busy
// servicing a request, or busy recalling L1 copies for an inclusive-LLC
// eviction.
const (
	bkIdle proto.State = iota
	bkBusy
	bkEvict
)

var bankStates = []string{"idle", "busy", "evicting"}

type bankMsgCtx struct {
	b      *Bank
	m      *Msg
	queued bool
	// d memoizes the dispatch-time directory lookup (nil when the line is
	// untracked); actions reuse it instead of probing the table again.
	d *dirLine
}

// line returns the message's directory entry, materializing one if the
// dispatch-time lookup came up empty.
func (c bankMsgCtx) line() *dirLine {
	if c.d != nil {
		return c.d
	}
	return c.b.line(c.m.Line)
}

// Stable-state service events.
const (
	svcLoad proto.Event = iota
	svcStore
)

var (
	svcEvents = []string{"GetS", "GetM"}
	svcStates = []string{"I", "S", "EM"}
)

type bankSvcCtx struct {
	b *Bank
	d *dirLine
	m *Msg
}

// Cluster-collector states (two-level directory, cluster.go): a bank with
// no open round for a line is idle; from ClInv until every fanned-out
// invalidation answers it is collecting.
const (
	clIdle proto.State = iota
	clCollecting
)

var clusterStates = []string{"idle", "collecting"}

type clusterCtx struct {
	b *Bank
	m *Msg
}

// Middle-cache promotion events.
const (
	midLoad proto.Event = iota
	midStore
)

var midEvents = []string{"load", "store"}

// midStates is the mid.promote state space: the cache.State names plus a
// synthetic "stale" state for a promote whose middle-cache slot died — or
// was reused for a different line — during the MidHit delay.
var midStates = append(append([]string{}, cacheStates...), "stale")

// midStale is the synthetic stale-promote state. It must sit directly after
// the cache.State codes (TestMidStaleState pins the alignment).
const midStale proto.State = 7

// midCtx is the mid.promote dispatch context and the payload of
// evL1MidPromote (recycled through L1.midCtxFree). done is the access's
// completion, guarded by epoch ep; promoteFromMid turns the pair into a raw
// completion for the current epoch before it dispatches.
type midCtx struct {
	l1    *L1
	line  mem.Line // the line the promote was scheduled for
	me    *cache.Entry
	write bool
	done  func()
	ep    uint64
}

// --- compiled tables -------------------------------------------------------

var (
	l1RecvTable      *proto.Table[l1MsgCtx]
	l1FillTable      *proto.Table[l1FillCtx]
	l1FwdTable       *proto.Table[l1FwdCtx]
	l1InvTable       *proto.Table[l1InvCtx]
	bankRecvTable    *proto.Table[bankMsgCtx]
	bankSvcTable     *proto.Table[bankSvcCtx]
	bankClusterTable *proto.Table[clusterCtx]
	midPromoteTable  *proto.Table[midCtx]
)

func init() {
	buildL1RecvTable()
	buildL1FillTable()
	buildL1FwdTable()
	buildL1InvTable()
	buildBankRecvTable()
	buildBankSvcTable()
	buildBankClusterTable()
	buildMidPromoteTable()
	registerProtocolTables()
}

// buildL1RecvTable compiles the L1's top-level message table. Message
// lifecycle is visible in the action column: every row ends in free-msg
// unless ownership moves (queue-external) or the handler frees mid-sequence
// (resolve-apply frees before running the continuation, which may re-enter
// the allocator).
func buildL1RecvTable() {
	free := act("free-msg", func(c l1MsgCtx) { c.l1.sys.free(c.m) })
	fill := act("fill", func(c l1MsgCtx) { c.l1.fill(c.m) })
	forward := act("forward", func(c l1MsgCtx) { c.l1.forwarded(c.m) })
	queueExt := act("queue-external", func(c l1MsgCtx) { c.l1.queueExternal(c.m) })
	resolveApply := act("resolve-apply", func(c l1MsgCtx) { c.l1.applyDecision(c.m) })

	l1RecvTable = proto.New("l1.receive", l1RecvStates, msgEvents,
		[]proto.Transition[l1MsgCtx]{
			{From: proto.Any, On: onMsg(MsgDataS), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{fill, free}},
			{From: proto.Any, On: onMsg(MsgDataE), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{fill, free}},
			{From: proto.Any, On: onMsg(MsgReject), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{act("apply-reject-policy", func(c l1MsgCtx) { c.l1.rejected(c.m) }), free}},
			{From: l1Ready, On: onMsg(MsgFwdGetS), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{forward, free}},
			{From: l1Ready, On: onMsg(MsgFwdGetM), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{forward, free}},
			{From: l1Ready, On: onMsg(MsgInv), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{act("invalidate", func(c l1MsgCtx) { c.l1.invalidated(c.m) }), free}},
			{From: l1Applying, On: onMsg(MsgFwdGetS), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{queueExt}},
			{From: l1Applying, On: onMsg(MsgFwdGetM), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{queueExt}},
			{From: l1Applying, On: onMsg(MsgInv), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{queueExt}},
			{From: proto.Any, On: onMsg(MsgWakeUp), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{act("wake-parked", func(c l1MsgCtx) { c.l1.wakeParked() }), free}},
			{From: proto.Any, On: onMsg(MsgHLGrant), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{resolveApply}},
			{From: proto.Any, On: onMsg(MsgHLDeny), To: proto.Same,
				Actions: []proto.Action[l1MsgCtx]{resolveApply}},
		},
		forbid(nil, []proto.State{l1Ready, l1Applying}, bankBound,
			"bank-bound message delivered to an L1"))
}

// buildL1FillTable compiles fill settlement: which stable state a transient
// settles into on data. The table's To column is authoritative — fill
// assigns the dispatch result to the entry — so the settlement rules live
// entirely here. The write-intent invariant (I->S carries a read, I->M and
// S->M carry a write) is what makes DataS impossible for the write
// transients: the directory answers GetM exclusively or not at all.
func buildL1FillTable() {
	finish := []proto.Action[l1FillCtx]{
		act("tx-bits", func(c l1FillCtx) { c.l1.fillTxBits(c.ms, c.e) }),
		act("unblock-dir", func(c l1FillCtx) { c.l1.fillUnblock(c.m) }),
		act("complete-miss", func(c l1FillCtx) { c.l1.fillComplete(c.ms) }),
	}
	markDirty := act("mark-dirty", func(c l1FillCtx) { c.e.Dirty = true })

	l1FillTable = proto.New("l1.fill", cacheStates, fillEvents,
		[]proto.Transition[l1FillCtx]{
			{From: cst(cache.ItoS), On: fillDataS, To: cst(cache.Shared), Actions: finish},
			{From: cst(cache.ItoS), On: fillDataE, To: cst(cache.Exclusive), Actions: finish},
			{From: cst(cache.ItoM), On: fillDataE, To: cst(cache.Modified),
				Actions: append([]proto.Action[l1FillCtx]{markDirty}, finish...)},
			{From: cst(cache.StoM), On: fillDataE, To: cst(cache.Modified),
				Actions: append([]proto.Action[l1FillCtx]{markDirty}, finish...)},
		},
		forbid(
			forbid(nil,
				[]proto.State{cst(cache.Invalid), cst(cache.Shared), cst(cache.Exclusive), cst(cache.Modified)},
				[]proto.Event{fillDataS, fillDataE},
				"fill without a transient line"),
			[]proto.State{cst(cache.ItoM), cst(cache.StoM)},
			[]proto.Event{fillDataS},
			"exclusive request answered with shared data"))
}

// buildL1FwdTable compiles conflict detection and resolution for
// FwdGetS/FwdGetM (paper Fig. 4). The state classifies the held copy by its
// transactional bits; a conflict is a forward over a write-set line, or any
// exclusive forward over a transactional line. The in-tx guards keep the
// original corner intact: transactional bits without a live transaction fall
// through to the plain ownership transfer.
func buildL1FwdTable() {
	nackNoCopy := act("nack-no-copy", func(c l1FwdCtx) { c.l1.nack(c.m.Line, c.m.Requester) })
	respond := act("transfer-ownership", func(c l1FwdCtx) { c.l1.respondForward(c.m, c.e, c.inL1) })
	reject := act("reject-forward", func(c l1FwdCtx) { c.l1.fwdReject(c.m) })
	abortVictim := act("abort-victim", func(c l1FwdCtx) { c.l1.abortVictim(c.m, c.e) })
	dropOwned := act("drop-owned", func(c l1FwdCtx) { c.l1.dropAfterConflict(c.e) })
	nackConflict := act("nack-conflict", func(c l1FwdCtx) { c.l1.nack(c.m.Line, c.m.Requester) })

	ownerWins := when("in-tx-and-owner-wins",
		func(c l1FwdCtx) bool { return c.l1.Tx.InTx() && c.l1.ownerWins(c.m) })
	inTx := when("in-tx", func(c l1FwdCtx) bool { return c.l1.Tx.InTx() })

	// conflictRows is the guarded reject / abort / fall-through triple shared
	// by every conflicting (state, event) pair.
	conflictRows := func(from proto.State, on proto.Event) []proto.Transition[l1FwdCtx] {
		return []proto.Transition[l1FwdCtx]{
			{From: from, On: on, Guard: ownerWins, To: proto.Same,
				Actions: []proto.Action[l1FwdCtx]{reject}},
			{From: from, On: on, Guard: inTx, To: proto.Same,
				Actions: []proto.Action[l1FwdCtx]{abortVictim, dropOwned, nackConflict}},
			{From: from, On: on, To: proto.Same,
				Actions: []proto.Action[l1FwdCtx]{respond}},
		}
	}

	rows := []proto.Transition[l1FwdCtx]{
		{From: fwdNone, On: fwdLoad, To: proto.Same, Actions: []proto.Action[l1FwdCtx]{nackNoCopy}},
		{From: fwdNone, On: fwdStore, To: proto.Same, Actions: []proto.Action[l1FwdCtx]{nackNoCopy}},
		{From: fwdPlain, On: fwdLoad, To: proto.Same, Actions: []proto.Action[l1FwdCtx]{respond}},
		{From: fwdPlain, On: fwdStore, To: proto.Same, Actions: []proto.Action[l1FwdCtx]{respond}},
		// A read-set line shares read-read without conflict.
		{From: fwdTxRead, On: fwdLoad, To: proto.Same, Actions: []proto.Action[l1FwdCtx]{respond}},
	}
	rows = append(rows, conflictRows(fwdTxRead, fwdStore)...)
	rows = append(rows, conflictRows(fwdTxWrite, fwdLoad)...)
	rows = append(rows, conflictRows(fwdTxWrite, fwdStore)...)

	l1FwdTable = proto.New("l1.forward", fwdStates, fwdEvents, rows, nil)
}

// buildL1InvTable compiles invalidation handling: either a GetM over sharers
// (external) or an LLC back-invalidation recall (Requester == -1). Unlike
// the forward table, the tx state here already requires a live transaction
// (matching the pre-table predicate), so only the arbitration outcome is
// guarded.
func buildL1InvTable() {
	ack := act("ack-dir", func(c l1InvCtx) { c.l1.invAckDir(c.m) })
	drop := act("drop-line", func(c l1InvCtx) { c.l1.dropForInv(c.e) })

	l1InvTable = proto.New("l1.invalidate", invStates, invEvents,
		[]proto.Transition[l1InvCtx]{
			// Stale sharer (silent drop) or transient without a copy: ack only.
			{From: invNone, On: invExternal, To: proto.Same, Actions: []proto.Action[l1InvCtx]{ack}},
			{From: invNone, On: invRecall, To: proto.Same, Actions: []proto.Action[l1InvCtx]{ack}},
			{From: invPlain, On: invExternal, To: proto.Same, Actions: []proto.Action[l1InvCtx]{drop, ack}},
			{From: invPlain, On: invRecall, To: proto.Same, Actions: []proto.Action[l1InvCtx]{drop, ack}},
			// Recall over transactional data: the overflow policy decides
			// (external=true — switchingMode never fires on a recall). An
			// aborted read-set survivor is deliberately NOT dropped here; the
			// directory entry dies with the eviction and tolerates the stale
			// copy.
			{From: invTx, On: invRecall, To: proto.Same,
				Actions: []proto.Action[l1InvCtx]{
					act("overflow-recall", func(c l1InvCtx) { c.l1.recallOverflow(c.e) }), ack}},
			{From: invTx, On: invExternal,
				Guard: when("owner-wins", func(c l1InvCtx) bool { return c.l1.ownerWins(c.m) }),
				To:    proto.Same,
				Actions: []proto.Action[l1InvCtx]{
					act("reject-inv", func(c l1InvCtx) { c.l1.invReject(c.m) })}},
			{From: invTx, On: invExternal, To: proto.Same,
				Actions: []proto.Action[l1InvCtx]{
					act("abort-victim", func(c l1InvCtx) { c.l1.abortVictim(c.m, c.e) }),
					// The abort dropped write-set lines; a read-set line (it
					// was Shared) survives it and is dropped now.
					act("drop-survivor", func(c l1InvCtx) {
						if c.e.State.Valid() || c.e.State == cache.StoM {
							c.l1.dropForInv(c.e)
						}
					}),
					ack}},
		}, nil)
}

// buildBankRecvTable compiles the directory bank's top-level message table.
// Receive dispatches with queued=false; drainQueue re-dispatches parked
// requests through the same table with queued=true (the single queue-drain
// path), which skips the count-request bump already charged at first
// receipt.
func buildBankRecvTable() {
	free := act("free-msg", func(c bankMsgCtx) { c.b.sys.free(c.m) })
	count := act("count-request", func(c bankMsgCtx) {
		if !c.queued {
			c.b.Requests++
		}
	})
	service := act("service", func(c bankMsgCtx) { c.b.service(c.line(), c.m) })
	enqueue := act("enqueue", func(c bankMsgCtx) {
		d := c.line()
		d.queue = append(d.queue, c.m) // ownership moves to the queue
	})
	put := act("handle-put", func(c bankMsgCtx) { c.b.handlePut(c.line(), c.m) })
	// Pre-transactional writeback: refresh the LLC copy immediately, even
	// while busy — it is response-class traffic and the owner is unchanged.
	txWB := act("refresh-llc", func(c bankMsgCtx) { c.b.fillLLC(c.m.Line) })

	// at wraps a pending-request action with the busy line's tracker (the
	// busy states guarantee the directory entry exists).
	at := func(name string, do func(b *Bank, d *dirLine, m *Msg)) proto.Action[bankMsgCtx] {
		return act(name, func(c bankMsgCtx) { do(c.b, c.d, c.m) })
	}

	bankRecvTable = proto.New("bank.receive", bankStates, msgEvents,
		[]proto.Transition[bankMsgCtx]{
			{From: bkIdle, On: onMsg(MsgGetS), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{count, service}},
			{From: bkIdle, On: onMsg(MsgGetM), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{count, service}},
			{From: bkBusy, On: onMsg(MsgGetS), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{count, enqueue}},
			{From: bkBusy, On: onMsg(MsgGetM), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{count, enqueue}},
			{From: bkEvict, On: onMsg(MsgGetS), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{count, enqueue}},
			{From: bkEvict, On: onMsg(MsgGetM), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{count, enqueue}},
			{From: bkIdle, On: onMsg(MsgPutM), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{put, free}},
			{From: bkIdle, On: onMsg(MsgPutE), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{put, free}},
			{From: bkBusy, On: onMsg(MsgPutM), To: proto.Same, Actions: []proto.Action[bankMsgCtx]{enqueue}},
			{From: bkBusy, On: onMsg(MsgPutE), To: proto.Same, Actions: []proto.Action[bankMsgCtx]{enqueue}},
			{From: bkEvict, On: onMsg(MsgPutM), To: proto.Same, Actions: []proto.Action[bankMsgCtx]{enqueue}},
			{From: bkEvict, On: onMsg(MsgPutE), To: proto.Same, Actions: []proto.Action[bankMsgCtx]{enqueue}},
			{From: proto.Any, On: onMsg(MsgTxWB), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{txWB, free}},
			{From: bkBusy, On: onMsg(MsgOwnerData), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{at("take-owner-data", (*Bank).takeOwnerData), free}},
			{From: bkBusy, On: onMsg(MsgNack), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{at("serve-after-nack", (*Bank).ownerNacked), free}},
			{From: bkBusy, On: onMsg(MsgRejectFwd), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{at("withdraw-request", (*Bank).ownerRejected), free}},
			{From: bkBusy, On: onMsg(MsgInvAck), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{at("collect-inv-ack", (*Bank).collectInvAck), free}},
			{From: bkBusy, On: onMsg(MsgInvReject), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{at("collect-inv-reject", (*Bank).collectInvReject), free}},
			{From: bkBusy, On: onMsg(MsgClInvDone), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{at("fold-cluster-round", (*Bank).collectClusterDone), free}},
			{From: bkEvict, On: onMsg(MsgInvAck), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{at("collect-evict-ack", (*Bank).collectEvictAck), free}},
			{From: bkBusy, On: onMsg(MsgUnblock), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{at("commit-unblock", (*Bank).commitUnblock), free}},
			{From: proto.Any, On: onMsg(MsgHLApply), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{act("arb-apply", func(c bankMsgCtx) { c.b.arbApply(c.m) }), free}},
			{From: proto.Any, On: onMsg(MsgHLRelease), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{act("arb-release", func(c bankMsgCtx) { c.b.arbRelease(c.m) }), free}},
			{From: proto.Any, On: onMsg(MsgSigAdd), To: proto.Same,
				Actions: []proto.Action[bankMsgCtx]{act("sig-bandwidth", func(c bankMsgCtx) { c.b.sigBandwidth() }), free}},
		},
		func() []proto.Impossible {
			im := forbid(nil, []proto.State{bkIdle, bkBusy, bkEvict}, l1Bound,
				"L1-bound message delivered to a bank")
			im = forbid(im, []proto.State{bkIdle},
				[]proto.Event{onMsg(MsgOwnerData), onMsg(MsgNack), onMsg(MsgRejectFwd)},
				"stray owner reply for an idle line")
			im = forbid(im, []proto.State{bkIdle},
				[]proto.Event{onMsg(MsgInvAck), onMsg(MsgInvReject)},
				"stray invalidation reply for an idle line")
			im = forbid(im, []proto.State{bkIdle, bkBusy, bkEvict},
				[]proto.Event{onMsg(MsgClInv)},
				"cluster invalidations are consumed by the collector dispatch, never the home table")
			im = forbid(im, []proto.State{bkIdle}, []proto.Event{onMsg(MsgClInvDone)},
				"stray cluster round result for an idle line")
			im = forbid(im, []proto.State{bkEvict}, []proto.Event{onMsg(MsgClInvDone)},
				"cluster round result during a back-invalidation")
			im = forbid(im, []proto.State{bkIdle}, []proto.Event{onMsg(MsgUnblock)},
				"stray unblock for an idle line")
			im = forbid(im, []proto.State{bkEvict},
				[]proto.Event{onMsg(MsgOwnerData), onMsg(MsgNack), onMsg(MsgRejectFwd)},
				"owner reply during a back-invalidation")
			im = forbid(im, []proto.State{bkEvict}, []proto.Event{onMsg(MsgInvReject)},
				"an L1 rejected an LLC back-invalidation")
			im = forbid(im, []proto.State{bkEvict}, []proto.Event{onMsg(MsgUnblock)},
				"unblock during a back-invalidation")
			return im
		}())
}

// buildBankSvcTable compiles the stable-state service decisions once the LLC
// holds the line (the signature check and busy transition already happened
// in service). The directory's stable state only changes at unblock, so
// every row keeps Same.
func buildBankSvcTable() {
	dataE := act("grant-exclusive", func(c bankSvcCtx) { c.b.sendData(c.d, MsgDataE) })
	dataS := act("grant-shared", func(c bankSvcCtx) { c.b.sendData(c.d, MsgDataS) })
	invs := act("fanout-invalidations", func(c bankSvcCtx) { c.b.fanoutInv(c.d, c.m) })
	fwd := act("forward-to-owner", func(c bankSvcCtx) { c.b.fwdToOwner(c.d, c.m) })

	ownerIsReq := when("owner-is-requester",
		func(c bankSvcCtx) bool { return c.d.owner == c.m.Requester })
	otherSharers := when("other-sharers",
		func(c bankSvcCtx) bool { return c.d.sharers.AnyExcept(c.m.Requester) })

	bankSvcTable = proto.New("bank.service", svcStates, svcEvents,
		[]proto.Transition[bankSvcCtx]{
			{From: proto.State(dirI), On: svcLoad, To: proto.Same, Actions: []proto.Action[bankSvcCtx]{dataE}},
			{From: proto.State(dirI), On: svcStore, To: proto.Same, Actions: []proto.Action[bankSvcCtx]{dataE}},
			{From: proto.State(dirS), On: svcLoad, To: proto.Same, Actions: []proto.Action[bankSvcCtx]{dataS}},
			{From: proto.State(dirS), On: svcStore, Guard: otherSharers, To: proto.Same,
				Actions: []proto.Action[bankSvcCtx]{invs}},
			// The requester is the lone sharer: grant exclusivity directly.
			{From: proto.State(dirS), On: svcStore, To: proto.Same, Actions: []proto.Action[bankSvcCtx]{dataE}},
			// The owner re-requests a line it silently dropped (abort or
			// race); the LLC copy is the pre-transactional value.
			{From: proto.State(dirEM), On: svcLoad, Guard: ownerIsReq, To: proto.Same,
				Actions: []proto.Action[bankSvcCtx]{dataE}},
			{From: proto.State(dirEM), On: svcLoad, To: proto.Same, Actions: []proto.Action[bankSvcCtx]{fwd}},
			{From: proto.State(dirEM), On: svcStore, Guard: ownerIsReq, To: proto.Same,
				Actions: []proto.Action[bankSvcCtx]{dataE}},
			{From: proto.State(dirEM), On: svcStore, To: proto.Same, Actions: []proto.Action[bankSvcCtx]{fwd}},
		}, nil)
}

// buildBankClusterTable compiles the cluster collector of the two-level
// directory (cluster.go): what a collector bank does with a delegated
// invalidation round. Bank.clusterRole routes only ClInv and round-bound
// InvAck/InvReject here; every other message type is a declared violation,
// which keeps the collector's event space honest against routing drift.
func buildBankClusterTable() {
	free := act("free-msg", func(c clusterCtx) { c.b.sys.free(c.m) })

	bankClusterTable = proto.New("bank.clinv", clusterStates, msgEvents,
		[]proto.Transition[clusterCtx]{
			{From: clIdle, On: onMsg(MsgClInv), To: clCollecting,
				Actions: []proto.Action[clusterCtx]{
					act("fan-cluster-invs", func(c clusterCtx) { c.b.startCollect(c.m) }), free}},
			{From: clCollecting, On: onMsg(MsgInvAck), To: proto.Same,
				Actions: []proto.Action[clusterCtx]{
					act("collect-cluster-ack", func(c clusterCtx) { c.b.collectClusterAck(c.m) }), free}},
			{From: clCollecting, On: onMsg(MsgInvReject), To: proto.Same,
				Actions: []proto.Action[clusterCtx]{
					act("collect-cluster-reject", func(c clusterCtx) { c.b.collectClusterReject(c.m) }), free}},
		},
		func() []proto.Impossible {
			var rest []proto.Event
			for i := range msgEvents {
				if t := MsgType(i); t == MsgClInv || t == MsgInvAck || t == MsgInvReject {
					continue
				}
				rest = append(rest, proto.Event(i))
			}
			im := forbid(nil, []proto.State{clIdle, clCollecting}, rest,
				"only delegated invalidation traffic enters the collector table")
			im = forbid(im, []proto.State{clCollecting}, []proto.Event{onMsg(MsgClInv)},
				"the home never overlaps cluster rounds for one line")
			im = forbid(im, []proto.State{clIdle},
				[]proto.Event{onMsg(MsgInvAck), onMsg(MsgInvReject)},
				"invalidation reply without an open collector round")
			return im
		}())
}

// buildMidPromoteTable compiles middle-cache promotion (three-level
// organization only): what a mid hit does on its way into the L1. A store
// over a Shared mid line runs the upgrade path (the line logically moves to
// the L1 as S->M); everything else moves in its current state and completes
// as a hit. The stale rows cover the promote-delay race: the promote fires
// MidHit cycles after the middle-cache hit, and in that window the slot can
// die (abort) or be reused for another line — the classifier maps both to
// "stale", and the access is re-resolved from scratch (a racing promote that
// already installed the line completes as a hit, an in-flight request parks
// on its MSHR, and a truly gone line re-issues as an ordinary miss).
func buildMidPromoteTable() {
	move := act("move-to-l1", func(c midCtx) { c.l1.moveToL1(c.me, c.write, c.done) })
	reissue := act("reissue-after-stale", func(c midCtx) { c.l1.Access(c.line, c.write, c.done) })

	midPromoteTable = proto.New("mid.promote", midStates, midEvents,
		[]proto.Transition[midCtx]{
			{From: cst(cache.Shared), On: midStore, To: cst(cache.StoM),
				Actions: []proto.Action[midCtx]{
					act("upgrade-through-mid", func(c midCtx) { c.l1.upgradeThroughMid(c.me, c.done) })}},
			{From: cst(cache.Shared), On: midLoad, To: proto.Same, Actions: []proto.Action[midCtx]{move}},
			{From: cst(cache.Exclusive), On: midLoad, To: proto.Same, Actions: []proto.Action[midCtx]{move}},
			{From: cst(cache.Exclusive), On: midStore, To: proto.Same, Actions: []proto.Action[midCtx]{move}},
			{From: cst(cache.Modified), On: midLoad, To: proto.Same, Actions: []proto.Action[midCtx]{move}},
			{From: cst(cache.Modified), On: midStore, To: proto.Same, Actions: []proto.Action[midCtx]{move}},
			{From: midStale, On: midLoad, To: proto.Same, Actions: []proto.Action[midCtx]{reissue}},
			{From: midStale, On: midStore, To: proto.Same, Actions: []proto.Action[midCtx]{reissue}},
		},
		forbid(forbid(nil,
			[]proto.State{cst(cache.ItoS), cst(cache.ItoM), cst(cache.StoM)},
			[]proto.Event{midLoad, midStore},
			"the middle cache never holds transient lines"),
			[]proto.State{cst(cache.Invalid)},
			[]proto.Event{midLoad, midStore},
			"a dead or reused slot dispatches as stale, never as I"))
}

// --- registry, counters, and the transition heat profile -------------------

// Table indices into System.fired. One counter slice per table per System,
// so concurrent harness runs never share mutable state.
const (
	tblL1Recv = iota
	tblL1Fill
	tblL1Fwd
	tblL1Inv
	tblBankRecv
	tblBankSvc
	tblBankCluster
	tblMidPromote
	tblCount
)

// protocolTable is the type-erased registry view of one compiled table.
// rows holds its heat-profile rows, one per transition in declaration order
// with Count zero: labelled once at init, so a run's TransitionProfile only
// copies them and fills in the counts.
type protocolTable struct {
	rows     []stats.TransitionCount
	validate func() []error
	doc      func() proto.Doc
}

func registerTable[C any](t *proto.Table[C]) protocolTable {
	d := t.Doc()
	rows := make([]stats.TransitionCount, len(d.Transitions))
	for j, tr := range d.Transitions {
		label := ""
		if len(tr.Actions) > 0 {
			label = tr.Actions[0]
		}
		rows[j] = stats.TransitionCount{Table: d.Name, From: tr.From, On: tr.On,
			Guard: tr.Guard, To: tr.To, Label: label}
	}
	return protocolTable{rows: rows, validate: t.Validate, doc: t.Doc}
}

var protocolTables [tblCount]protocolTable

// profileRows is the heat profile's length: every table's transitions.
var profileRows int

func registerProtocolTables() {
	protocolTables = [tblCount]protocolTable{
		tblL1Recv:      registerTable(l1RecvTable),
		tblL1Fill:      registerTable(l1FillTable),
		tblL1Fwd:       registerTable(l1FwdTable),
		tblL1Inv:       registerTable(l1InvTable),
		tblBankRecv:    registerTable(bankRecvTable),
		tblBankSvc:     registerTable(bankSvcTable),
		tblBankCluster: registerTable(bankClusterTable),
		tblMidPromote:  registerTable(midPromoteTable),
	}
	for _, t := range protocolTables {
		profileRows += len(t.rows)
	}
}

// ProtocolDocs returns the documentation view of every protocol table in
// registry order (cmd/protodoc renders them into DESIGN.md §8).
func ProtocolDocs() []proto.Doc {
	docs := make([]proto.Doc, 0, tblCount)
	for _, t := range protocolTables {
		docs = append(docs, t.doc())
	}
	return docs
}

// ValidateProtocolTables runs the exhaustiveness validator over every table:
// every (state, event) pair handled or declared impossible, no transition
// shadowed into unreachability (see TestProtocolTablesComplete).
func ValidateProtocolTables() []error {
	var errs []error
	for _, t := range protocolTables {
		errs = append(errs, t.validate()...)
	}
	return errs
}

// newFiredCounters allocates one zeroed fired-counter slice per table.
func newFiredCounters() [tblCount][]uint64 {
	var fired [tblCount][]uint64
	for i, t := range protocolTables {
		fired[i] = make([]uint64, len(t.rows))
	}
	return fired
}

// TransitionProfile reports how often each protocol transition fired in this
// System, in registry + declaration order (the transition heat profile of
// lockillersim -transitions). Zero-count transitions are included; renderers
// decide what to elide.
func (s *System) TransitionProfile() []stats.TransitionCount {
	out := make([]stats.TransitionCount, 0, profileRows)
	for i, t := range protocolTables {
		for j, row := range t.rows {
			row.Count = s.fired[i][j]
			out = append(out, row)
		}
	}
	return out
}
