package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/priority"
	"repro/internal/sim"
)

// testClient records dooms.
type testClient struct {
	dooms []htm.AbortCause
}

func (t *testClient) OnDoom(c htm.AbortCause) { t.dooms = append(t.dooms, c) }

// tsys builds a small 4-core system for protocol tests.
func tsys(t *testing.T, hc htm.Config) (*sim.Engine, *System, []*testClient) {
	t.Helper()
	e := sim.NewEngine()
	p := DefaultParams()
	p.Cores = 4
	p.LLCSize = 1 << 20
	sys := NewSystem(e, p, hc)
	clients := make([]*testClient, p.Cores)
	for i := range clients {
		clients[i] = &testClient{}
		sys.L1s[i].SetClient(clients[i])
	}
	return e, sys, clients
}

func baseCfg() htm.Config { return htm.Config{}.Defaults() }

func recoveryCfg(p htm.RejectPolicy) htm.Config {
	return htm.Config{Conflict: htm.Recovery{Policy: p}, Priority: priority.InstsBased{}}.Defaults()
}

// access performs a blocking access and returns the completion cycle.
func access(t *testing.T, e *sim.Engine, sys *System, core int, l mem.Line, write bool) uint64 {
	t.Helper()
	done := false
	var at uint64
	sys.L1s[core].Access(l, write, func() { done = true; at = e.Now() })
	for !done {
		if !e.Step() {
			t.Fatalf("core %d access to line %d never completed (deadlock)", core, l)
		}
	}
	return at
}

// tryAccess performs an access that may never complete (e.g. parked);
// it runs the engine dry and reports completion.
func tryAccess(e *sim.Engine, sys *System, core int, l mem.Line, write bool) *bool {
	done := new(bool)
	sys.L1s[core].Access(l, write, func() { *done = true })
	return done
}

func drain(e *sim.Engine) {
	for e.Step() {
	}
}

func st(sys *System, core int, l mem.Line) cache.State {
	e := sys.L1s[core].Array().Peek(l)
	if e == nil {
		return cache.Invalid
	}
	return e.State
}

func TestReadMissGetsExclusive(t *testing.T) {
	e, sys, _ := tsys(t, baseCfg())
	at := access(t, e, sys, 0, 100, false)
	if got := st(sys, 0, 100); got != cache.Exclusive {
		t.Fatalf("first reader state = %v, want E", got)
	}
	// Latency must include NoC + memory + LLC + L1 components.
	if at < sys.MemLatency {
		t.Fatalf("cold miss completed in %d cycles (< memory latency)", at)
	}
	drain(e)
	// Second read hits: fast.
	t0 := e.Now()
	at2 := access(t, e, sys, 0, 100, false)
	if at2-t0 != sys.L1Hit {
		t.Fatalf("hit latency = %d, want %d", at2-t0, sys.L1Hit)
	}
}

func TestSecondReaderSharesAndDowngradesOwner(t *testing.T) {
	e, sys, _ := tsys(t, baseCfg())
	access(t, e, sys, 0, 100, false)
	drain(e)
	access(t, e, sys, 1, 100, false)
	drain(e)
	if got := st(sys, 0, 100); got != cache.Shared {
		t.Fatalf("owner state = %v, want S", got)
	}
	if got := st(sys, 1, 100); got != cache.Shared {
		t.Fatalf("reader state = %v, want S", got)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	e, sys, _ := tsys(t, baseCfg())
	access(t, e, sys, 0, 100, false)
	drain(e)
	access(t, e, sys, 1, 100, false)
	drain(e)
	access(t, e, sys, 2, 100, true)
	drain(e)
	if got := st(sys, 2, 100); got != cache.Modified {
		t.Fatalf("writer state = %v, want M", got)
	}
	if st(sys, 0, 100) != cache.Invalid || st(sys, 1, 100) != cache.Invalid {
		t.Fatal("sharers not invalidated")
	}
}

func TestWriteThenReadTransfersOwnership(t *testing.T) {
	e, sys, _ := tsys(t, baseCfg())
	access(t, e, sys, 0, 100, true)
	drain(e)
	access(t, e, sys, 1, 100, false)
	drain(e)
	if st(sys, 0, 100) != cache.Shared || st(sys, 1, 100) != cache.Shared {
		t.Fatalf("after fwd: owner=%v reader=%v, want S/S", st(sys, 0, 100), st(sys, 1, 100))
	}
	// Dirty data must have reached the LLC (owner downgraded cleanly).
	own := sys.L1s[0].Array().Peek(100)
	if own.Dirty {
		t.Fatal("owner still dirty after downgrade")
	}
}

func TestUpgradeFromShared(t *testing.T) {
	e, sys, _ := tsys(t, baseCfg())
	access(t, e, sys, 0, 100, false)
	drain(e)
	access(t, e, sys, 1, 100, false)
	drain(e)
	access(t, e, sys, 0, 100, true) // upgrade
	drain(e)
	if st(sys, 0, 100) != cache.Modified {
		t.Fatalf("upgrader state = %v, want M", st(sys, 0, 100))
	}
	if st(sys, 1, 100) != cache.Invalid {
		t.Fatal("other sharer survived upgrade")
	}
}

func TestEvictionAndRefill(t *testing.T) {
	e, sys, _ := tsys(t, baseCfg())
	// Fill one L1 set (4 ways) plus one more line mapped to the same set.
	sets := sys.L1s[0].Array().Sets()
	for i := 0; i <= 4; i++ {
		access(t, e, sys, 0, mem.Line(100+i*sets), true)
		drain(e)
	}
	// Victim (LRU = first line) must be re-fetchable.
	access(t, e, sys, 0, mem.Line(100), false)
	drain(e)
	if !st(sys, 0, 100).Valid() {
		t.Fatal("re-fetch after eviction failed")
	}
}

func TestRequesterWinConflictAbortsOwner(t *testing.T) {
	e, sys, cl := tsys(t, baseCfg())
	// Core 0 starts a transaction and writes line 100.
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 0, 100, true)
	drain(e)
	en := sys.L1s[0].Array().Peek(100)
	if !en.TxWrite {
		t.Fatal("tx write bit not set")
	}
	// Core 1 (also in a tx) reads it: requester wins, core 0 aborts.
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 1, 100, false)
	drain(e)
	if len(cl[0].dooms) != 1 || cl[0].dooms[0] != htm.CauseMC {
		t.Fatalf("owner dooms = %v, want [mc]", cl[0].dooms)
	}
	// Speculative line dropped at the owner; requester got exclusive data
	// (the NACK flow grants E).
	if st(sys, 0, 100) != cache.Invalid {
		t.Fatalf("aborted owner still holds line in %v", st(sys, 0, 100))
	}
	if got := st(sys, 1, 100); got != cache.Exclusive {
		t.Fatalf("requester state = %v, want E (NACK grant)", got)
	}
}

func TestReadReadNoConflict(t *testing.T) {
	e, sys, cl := tsys(t, baseCfg())
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 0, 100, false)
	drain(e)
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 1, 100, false)
	drain(e)
	if len(cl[0].dooms) != 0 {
		t.Fatalf("read-read sharing aborted a transaction: %v", cl[0].dooms)
	}
	if st(sys, 0, 100) != cache.Shared || st(sys, 1, 100) != cache.Shared {
		t.Fatal("both transactional readers should share")
	}
}

func TestRecoveryRejectsLowerPriorityRequester(t *testing.T) {
	e, sys, cl := tsys(t, recoveryCfg(htm.WaitWakeup))
	// Owner has high priority (many retired insts).
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sys.L1s[0].Tx.InstsRetired = 1000
	access(t, e, sys, 0, 100, true)
	drain(e)
	// Requester with low priority gets rejected and parks.
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	done := tryAccess(e, sys, 1, 100, false)
	for i := 0; i < 10000 && !*done; i++ {
		if !e.Step() {
			break
		}
	}
	if *done {
		t.Fatal("low-priority request should be parked, not satisfied")
	}
	if len(cl[0].dooms) != 0 {
		t.Fatalf("high-priority owner aborted: %v", cl[0].dooms)
	}
	if sys.L1s[0].RejectsSent == 0 || sys.L1s[1].RejectsReceived == 0 {
		t.Fatal("reject not recorded")
	}
	// Owner commits: the wake-up lets the parked request complete.
	sys.L1s[0].CommitTx()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if !*done {
		t.Fatal("parked request not woken after owner commit")
	}
	if len(cl[1].dooms) != 0 {
		t.Fatalf("requester aborted: %v", cl[1].dooms)
	}
}

func TestRecoverySelfAbortPolicy(t *testing.T) {
	e, sys, cl := tsys(t, recoveryCfg(htm.SelfAbort))
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sys.L1s[0].Tx.InstsRetired = 1000
	access(t, e, sys, 0, 100, true)
	drain(e)
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	tryAccess(e, sys, 1, 100, false)
	drain(e)
	if len(cl[1].dooms) != 1 || cl[1].dooms[0] != htm.CauseMC {
		t.Fatalf("requester dooms = %v, want [mc]", cl[1].dooms)
	}
	if len(cl[0].dooms) != 0 {
		t.Fatal("owner must survive")
	}
}

func TestRecoveryRetryLaterEventuallySucceeds(t *testing.T) {
	e, sys, cl := tsys(t, recoveryCfg(htm.RetryLater))
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sys.L1s[0].Tx.InstsRetired = 1000
	access(t, e, sys, 0, 100, true)
	drain(e)
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	done := tryAccess(e, sys, 1, 100, false)
	// Let a couple of rejected retries happen, then commit the owner.
	for i := 0; i < 4000; i++ {
		if !e.Step() {
			break
		}
	}
	sys.L1s[0].CommitTx()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if !*done {
		t.Fatal("timed retry never succeeded after owner commit")
	}
	if len(cl[1].dooms) != 0 {
		t.Fatalf("requester aborted: %v", cl[1].dooms)
	}
	if sys.L1s[1].RejectsReceived < 2 {
		t.Fatalf("expected multiple rejected retries, got %d", sys.L1s[1].RejectsReceived)
	}
}

func TestRecoveryHigherPriorityRequesterWins(t *testing.T) {
	e, sys, cl := tsys(t, recoveryCfg(htm.WaitWakeup))
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	// Owner has priority 0 (fresh restart).
	access(t, e, sys, 0, 100, true)
	drain(e)
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	sys.L1s[1].Tx.InstsRetired = 500
	access(t, e, sys, 1, 100, false)
	drain(e)
	if len(cl[0].dooms) != 1 {
		t.Fatalf("low-priority owner should abort, dooms=%v", cl[0].dooms)
	}
	if len(cl[1].dooms) != 0 {
		t.Fatal("high-priority requester should proceed")
	}
}

func TestInvRejectOnSharedTxLine(t *testing.T) {
	e, sys, cl := tsys(t, recoveryCfg(htm.WaitWakeup))
	// Core 0 tx-reads line 100 and gains priority.
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 0, 100, false)
	drain(e)
	sys.L1s[0].Tx.InstsRetired = 1000
	// Core 2 also reads it non-transactionally so the dir state is S.
	access(t, e, sys, 2, 100, false)
	drain(e)
	// Core 1 (low-prio tx) wants to write: core 0 rejects the Inv.
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	done := tryAccess(e, sys, 1, 100, true)
	for i := 0; i < 10000 && !*done; i++ {
		if !e.Step() {
			break
		}
	}
	if *done {
		t.Fatal("write should be rejected by the transactional reader")
	}
	if len(cl[0].dooms) != 0 {
		t.Fatal("reader must keep its copy")
	}
	if got := st(sys, 0, 100); got != cache.Shared {
		t.Fatalf("rejecting reader state = %v, want S", got)
	}
	// Innocent sharer 2 was invalidated conservatively.
	if st(sys, 2, 100) != cache.Invalid {
		t.Fatal("non-tx sharer should have been invalidated")
	}
	sys.L1s[0].CommitTx()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if !*done {
		t.Fatal("writer not woken after reader commit")
	}
}

func TestNonTxRequesterAlwaysWins(t *testing.T) {
	e, sys, cl := tsys(t, recoveryCfg(htm.WaitWakeup))
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sys.L1s[0].Tx.InstsRetired = 1_000_000
	access(t, e, sys, 0, 100, true)
	drain(e)
	// Core 1 not in any transaction.
	access(t, e, sys, 1, 100, false)
	drain(e)
	if len(cl[0].dooms) != 1 || cl[0].dooms[0] != htm.CauseNonTx {
		t.Fatalf("owner dooms = %v, want [non_tran]", cl[0].dooms)
	}
}

func TestTxWBEmittedForDirtyLine(t *testing.T) {
	e, sys, _ := tsys(t, baseCfg())
	// Make the line dirty non-transactionally.
	access(t, e, sys, 0, 100, true)
	drain(e)
	// Now write it inside a transaction: the pre-tx value must be written
	// back before the TxWrite bit is set.
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 0, 100, true)
	drain(e)
	if sys.L1s[0].TxWBs != 1 {
		t.Fatalf("TxWBs = %d, want 1", sys.L1s[0].TxWBs)
	}
}

func TestAbortDropsWriteSetOnly(t *testing.T) {
	e, sys, cl := tsys(t, baseCfg())
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 0, 100, true)
	access(t, e, sys, 0, 200, false)
	drain(e)
	sys.L1s[0].AbortLocal(htm.CauseFault)
	drain(e)
	if len(cl[0].dooms) != 1 || cl[0].dooms[0] != htm.CauseFault {
		t.Fatalf("dooms = %v", cl[0].dooms)
	}
	if st(sys, 0, 100) != cache.Invalid {
		t.Fatal("speculative write survived abort")
	}
	if !st(sys, 0, 200).Valid() {
		t.Fatal("read-set line should survive abort")
	}
	// The dropped line is re-readable by anyone (dir reconciles via NACK).
	access(t, e, sys, 1, 100, false)
	drain(e)
	if !st(sys, 1, 100).Valid() {
		t.Fatal("line unreachable after abort")
	}
}

func TestCommitKeepsWrites(t *testing.T) {
	e, sys, _ := tsys(t, baseCfg())
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 0, 100, true)
	drain(e)
	sys.L1s[0].CommitTx()
	sys.L1s[0].Tx.Reset()
	drain(e)
	en := sys.L1s[0].Array().Peek(100)
	if en == nil || en.State != cache.Modified || en.Tx() {
		t.Fatalf("committed line = %+v", en)
	}
}
