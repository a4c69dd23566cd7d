package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestEvictionRaceWithForward(t *testing.T) {
	// Core 0 owns a dirty line, evicts it (PutM in flight) while core 1's
	// GetS races: whatever the interleaving, both end up coherent.
	e, sys, _ := tsys(t, baseCfg())
	access(t, e, sys, 0, 100, true)
	drain(e)
	// Force eviction by filling the set.
	sets := sys.L1s[0].Array().Sets()
	for i := 1; i <= 4; i++ {
		sys.L1s[0].Access(mem.Line(100+i*sets), true, func() {})
	}
	// Concurrent read from core 1 before the PutM settles.
	done := tryAccess(e, sys, 1, 100, false)
	drain(e)
	if !*done {
		t.Fatal("racing read never completed")
	}
	if !st(sys, 1, 100).Valid() {
		t.Fatal("requester has no valid copy")
	}
}

func TestOwnerReRequestsAfterAbort(t *testing.T) {
	// After an abort drops a speculative line, the same core re-requesting
	// it hits the owner==requester directory path.
	e, sys, _ := tsys(t, baseCfg())
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 0, 100, true)
	drain(e)
	sys.L1s[0].AbortLocal(htm.CauseFault)
	drain(e)
	// Dir still believes core 0 owns line 100.
	access(t, e, sys, 0, 100, true)
	drain(e)
	if got := st(sys, 0, 100); got != cache.Modified {
		t.Fatalf("re-request state = %v, want M", got)
	}
}

// tinyLLCParams builds a 4-core system whose LLC banks are 2-way, so an
// LLC set can fill with lines that still have L1 copies.
func tinyLLCParams() Params {
	p := DefaultParams()
	p.Cores = 4
	p.LLCSize = 32 * 1024 // 8KB/bank: 2-way => 64 sets
	p.LLCWays = 2
	return p
}

// sameLLCSetLines returns n lines homed at bank 0 that map to the same
// LLC set but different L1 sets where possible.
func sameLLCSetLines(sys *System, n int) []mem.Line {
	bank := sys.Banks[0]
	llcSets := bank.arr.Sets()
	var out []mem.Line
	for k := 1; len(out) < n; k++ {
		// frame = k*llcSets => same LLC set 0; line = frame*cores.
		out = append(out, mem.Line(k*llcSets*sys.Cores))
	}
	return out
}

func TestBackInvalidationRecallsCopies(t *testing.T) {
	es := newEngineSys(t, tinyLLCParams(), baseCfg())
	e, sys := es.e, es.sys
	lines := sameLLCSetLines(sys, 3)
	// Cores 0 and 1 hold the first two lines; the third allocation must
	// back-invalidate one of them.
	access(t, e, sys, 0, lines[0], false)
	drain(e)
	access(t, e, sys, 1, lines[1], false)
	drain(e)
	access(t, e, sys, 2, lines[2], false)
	drain(e)
	if sys.Banks[0].BackInvals == 0 {
		t.Fatal("expected a back-invalidation when the LLC set filled with lines holding L1 copies")
	}
	// Exactly one of the recalled lines lost its L1 copy, and all three
	// remain fetchable.
	for _, l := range lines {
		access(t, e, sys, 3, l, false)
		drain(e)
	}
}

func TestBackInvalidationAbortsTx(t *testing.T) {
	es := newEngineSys(t, tinyLLCParams(), baseCfg())
	e, sys, cl := es.e, es.sys, es.cl
	lines := sameLLCSetLines(sys, 3)
	// Core 3 transactionally reads the first line; LRU makes it the
	// back-invalidation victim once two more lines land in the set.
	sys.L1s[3].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 3, lines[0], false)
	drain(e)
	access(t, e, sys, 0, lines[1], false)
	drain(e)
	access(t, e, sys, 1, lines[2], false)
	drain(e)
	if len(cl[3].dooms) != 1 || cl[3].dooms[0] != htm.CauseOverflow {
		t.Fatalf("LLC recall of a tx line must abort with 'of', got %v", cl[3].dooms)
	}
}

func TestNonTxParkedTimesOutAndRetries(t *testing.T) {
	// A non-transactional requester rejected by a lock transaction retries
	// on timeout even if the wake-up is lost.
	e, sys, _ := tsys(t, htmlockCfg(false))
	enterTL(t, sys, 0)
	access(t, e, sys, 0, 100, true)
	drain(e)
	done := tryAccess(e, sys, 1, 100, false) // plain access, rejected
	for i := 0; i < 5000 && !*done; i++ {
		if !e.Step() {
			break
		}
	}
	if *done {
		t.Fatal("should still be parked while lock tx runs")
	}
	// End the lock tx but drop its wake by ending through the arbiter
	// normally — the parked request completes either via wake or timeout.
	sys.L1s[0].HLEnd()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if !*done {
		t.Fatal("parked non-tx request never completed")
	}
}

func TestUpgradeRejectRestoresSharedState(t *testing.T) {
	e, sys, cl := tsys(t, recoveryCfg(htm.WaitWakeup))
	// Core 0: high-priority tx reader. Core 1: shares the line, then
	// tries to upgrade with low priority.
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 0, 100, false)
	drain(e)
	sys.L1s[0].Tx.InstsRetired = 10_000
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 1, 100, false)
	drain(e)
	done := tryAccess(e, sys, 1, 100, true) // upgrade attempt
	for i := 0; i < 10000 && !*done; i++ {
		if !e.Step() {
			break
		}
	}
	if *done {
		t.Fatal("upgrade should be rejected")
	}
	// The S copy must have survived the rejected upgrade (paper: restore
	// to the state before sending the request). A timed retry may already
	// be in flight (StoM again), but the line must never have reached M.
	if got := st(sys, 1, 100); got != cache.Shared && got != cache.StoM {
		t.Fatalf("upgrader state = %v, want S restored (or a retry in flight)", got)
	}
	if len(cl[1].dooms) != 0 {
		t.Fatal("upgrader must not abort under WaitWakeup")
	}
	sys.L1s[0].CommitTx()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if !*done {
		t.Fatal("upgrade not completed after reader commit")
	}
	if got := st(sys, 1, 100); got != cache.Modified {
		t.Fatalf("post-upgrade state = %v", got)
	}
}

func TestWakeOnAbortToo(t *testing.T) {
	// The wake-up table is drained on abort as well as commit.
	e, sys, _ := tsys(t, recoveryCfg(htm.WaitWakeup))
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sys.L1s[0].Tx.InstsRetired = 1000
	access(t, e, sys, 0, 100, true)
	drain(e)
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	done := tryAccess(e, sys, 1, 100, false)
	for i := 0; i < 10000 && !*done; i++ {
		if !e.Step() {
			break
		}
	}
	if *done {
		t.Fatal("expected park")
	}
	sys.L1s[0].AbortLocal(htm.CauseFault) // owner aborts instead of committing
	drain(e)
	if !*done {
		t.Fatal("abort did not wake the parked requester")
	}
}

func TestTxWBRaceServesFreshData(t *testing.T) {
	// Dirty non-tx line, transactional store (TxWB in flight), immediate
	// conflict loss: the requester must still get a coherent copy.
	e, sys, _ := tsys(t, baseCfg())
	access(t, e, sys, 0, 100, true)
	drain(e)
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sys.L1s[0].Access(100, true, func() {}) // TxWB + W bit, no drain
	// Core 1 reads concurrently: requester-win aborts core 0.
	done := tryAccess(e, sys, 1, 100, false)
	drain(e)
	if !*done {
		t.Fatal("racing read incomplete")
	}
	if !st(sys, 1, 100).Valid() {
		t.Fatal("no valid copy at requester")
	}
}

func TestSmallCacheOverflowsUnderHTM(t *testing.T) {
	p := DefaultParams()
	p.Cores = 4
	p.L1Size = 8 * 1024 // the Fig. 13 small config
	p.LLCSize = 1 << 20
	e := newEngineSys(t, p, baseCfg())
	sys := e.sys
	cl := e.cl
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.e.Now())
	sets := sys.L1s[0].Array().Sets()
	for i := 0; i < 5; i++ {
		ok := false
		sys.L1s[0].Access(mem.Line(4096+i*sets), true, func() { ok = true })
		drain(e.e)
		if !ok && len(cl[0].dooms) == 0 {
			t.Fatal("access neither completed nor aborted")
		}
	}
	if len(cl[0].dooms) != 1 || cl[0].dooms[0] != htm.CauseOverflow {
		t.Fatalf("dooms = %v, want [of]", cl[0].dooms)
	}
}

// engineSys bundles a system with custom params for tests.
type engineSys struct {
	e   *sim.Engine
	sys *System
	cl  []*testClient
}

func newEngineSys(t *testing.T, p Params, hc htm.Config) *engineSys {
	t.Helper()
	e := sim.NewEngine()
	sys := NewSystem(e, p, hc)
	clients := make([]*testClient, p.Cores)
	for i := range clients {
		clients[i] = &testClient{}
		sys.L1s[i].SetClient(clients[i])
	}
	return &engineSys{e: e, sys: sys, cl: clients}
}
