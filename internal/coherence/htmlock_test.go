package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/priority"
)

func htmlockCfg(switching bool) htm.Config {
	c := htm.Config{
		Conflict: htm.Recovery{Policy: htm.WaitWakeup},
		Priority: priority.InstsBased{},
		HTMLock:  true,
	}
	if switching {
		c.Overflow = htm.SwitchOverflow{}
	}
	return c.Defaults()
}

// enterTL drives core through the TL entry handshake.
func enterTL(t *testing.T, sys *System, core int) {
	t.Helper()
	granted := false
	sys.L1s[core].HLBegin(func() {
		sys.L1s[core].Tx.BeginAttempt(htm.TL, sys.Engine.Now())
		granted = true
	})
	for !granted {
		if !sys.Engine.Step() {
			t.Fatal("TL grant never arrived")
		}
	}
}

func TestLockTxRejectsConflicts(t *testing.T) {
	e, sys, cl := tsys(t, htmlockCfg(false))
	enterTL(t, sys, 0)
	access(t, e, sys, 0, 100, true) // lock-tx writes line 100
	drain(e)
	// An HTM transaction conflicting with the lock tx is rejected, parked,
	// and woken at hlend — it does NOT abort the lock tx.
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	sys.L1s[1].Tx.InstsRetired = 1 << 40 // even enormous priority loses to TL
	done := tryAccess(e, sys, 1, 100, false)
	for i := 0; i < 20000 && !*done; i++ {
		if !e.Step() {
			break
		}
	}
	if *done {
		t.Fatal("conflicting request should wait out the lock transaction")
	}
	if len(cl[0].dooms) != 0 {
		t.Fatal("lock transaction must never abort")
	}
	// hlend releases: wake + completion.
	sys.L1s[0].HLEnd()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if !*done {
		t.Fatal("parked request not released at hlend")
	}
}

func TestLockTxAbortsNothingWithoutConflict(t *testing.T) {
	e, sys, cl := tsys(t, htmlockCfg(false))
	// HTM tx runs on a disjoint line while the lock tx runs: full overlap.
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 1, 200, true)
	drain(e)
	enterTL(t, sys, 0)
	access(t, e, sys, 0, 100, true)
	drain(e)
	if len(cl[1].dooms) != 0 {
		t.Fatal("disjoint HTM tx must coexist with the lock tx")
	}
	sys.L1s[0].HLEnd()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if len(cl[1].dooms) != 0 {
		t.Fatal("hlend must not abort HTM transactions")
	}
	sys.L1s[1].CommitTx()
	sys.L1s[1].Tx.Reset()
}

func TestLockTxDefeatsHTMOwner(t *testing.T) {
	e, sys, cl := tsys(t, htmlockCfg(false))
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	sys.L1s[1].Tx.InstsRetired = 1 << 40
	access(t, e, sys, 1, 100, true)
	drain(e)
	enterTL(t, sys, 0)
	access(t, e, sys, 0, 100, false) // lock tx reads the HTM-written line
	drain(e)
	if len(cl[1].dooms) != 1 || cl[1].dooms[0] != htm.CauseLock {
		t.Fatalf("HTM owner dooms = %v, want [lock]", cl[1].dooms)
	}
	sys.L1s[0].HLEnd()
	sys.L1s[0].Tx.Reset()
}

func TestLockTxOverflowSpillsToSignature(t *testing.T) {
	e, sys, _ := tsys(t, htmlockCfg(false))
	enterTL(t, sys, 0)
	sets := sys.L1s[0].Array().Sets()
	// Fill one set with 5 transactional writes: the 5th spills.
	for i := 0; i < 5; i++ {
		access(t, e, sys, 0, mem.Line(64+i*sets), true)
		drain(e)
	}
	if sys.L1s[0].OverflowEvictions == 0 {
		t.Fatal("no signature spill recorded")
	}
	if sys.Arbiter.OfWr.Empty() {
		t.Fatal("write signature empty after spill")
	}
	// A request to the spilled line is rejected at the LLC.
	spilled := mem.Line(64) // LRU of the set
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	done := tryAccess(e, sys, 1, spilled, false)
	for i := 0; i < 20000 && !*done; i++ {
		if !e.Step() {
			break
		}
	}
	if *done {
		t.Fatal("request to signature-protected line should be rejected")
	}
	if sys.Banks[sys.HomeBank(spilled)].Rejections == 0 {
		t.Fatal("LLC rejection not counted")
	}
	// hlend clears signatures and wakes the rejected core.
	sys.L1s[0].HLEnd()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if !*done {
		t.Fatal("signature-rejected request not woken at hlend")
	}
	if !sys.Arbiter.OfWr.Empty() || !sys.Arbiter.OfRd.Empty() {
		t.Fatal("signatures survive hlend")
	}
}

func TestSwitchingModeOverflowSwitchesToSTL(t *testing.T) {
	e, sys, cl := tsys(t, htmlockCfg(true))
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sets := sys.L1s[0].Array().Sets()
	for i := 0; i < 5; i++ {
		access(t, e, sys, 0, mem.Line(64+i*sets), true)
		drain(e)
	}
	if len(cl[0].dooms) != 0 {
		t.Fatalf("transaction aborted instead of switching: %v", cl[0].dooms)
	}
	if got := sys.L1s[0].Tx.Mode; got != htm.STL {
		t.Fatalf("mode = %v, want STL", got)
	}
	if sys.Arbiter.Holder() != 0 || sys.Arbiter.HolderMode() != htm.STL {
		t.Fatal("arbiter does not reflect the switch")
	}
	if sys.L1s[0].SwitchGrants != 1 {
		t.Fatalf("SwitchGrants = %d", sys.L1s[0].SwitchGrants)
	}
	// The 5th access completed via the spill path.
	if !st(sys, 0, mem.Line(64+4*sets)).Valid() {
		t.Fatal("overflowing access did not complete after the switch")
	}
	// End: hlend, no lock involved.
	sys.L1s[0].HLEnd()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if sys.Arbiter.Holder() != -1 {
		t.Fatal("arbiter not released")
	}
}

func TestSwitchingModeDeniedWhileSTLActive(t *testing.T) {
	e, sys, cl := tsys(t, htmlockCfg(true))
	// Core 0 switches first.
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sets := sys.L1s[0].Array().Sets()
	for i := 0; i < 5; i++ {
		access(t, e, sys, 0, mem.Line(64+i*sets), true)
		drain(e)
	}
	if sys.L1s[0].Tx.Mode != htm.STL {
		t.Fatal("first switch failed")
	}
	// Core 1 overflows while core 0 holds STL: denied, aborts with "of".
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	for i := 0; i < 5; i++ {
		l := mem.Line(7 + i*sets) // different set-mapping stream
		sys.L1s[1].Access(l, true, func() {})
		drain(e)
	}
	if len(cl[1].dooms) != 1 || cl[1].dooms[0] != htm.CauseOverflow {
		t.Fatalf("dooms = %v, want [of]", cl[1].dooms)
	}
	if sys.Arbiter.Denies == 0 {
		t.Fatal("denial not counted")
	}
	sys.L1s[0].HLEnd()
	sys.L1s[0].Tx.Reset()
	drain(e)
}

func TestSwitchingModeOnlyTriedOnce(t *testing.T) {
	e, sys, _ := tsys(t, htmlockCfg(true))
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	if sys.L1s[0].Tx.TriedSwitch {
		t.Fatal("fresh attempt must not have tried switching")
	}
	sets := sys.L1s[0].Array().Sets()
	for i := 0; i < 6; i++ {
		access(t, e, sys, 0, mem.Line(64+i*sets), true)
		drain(e)
	}
	if sys.L1s[0].SwitchTries != 1 {
		t.Fatalf("SwitchTries = %d, want 1 (second overflow uses the spill path)", sys.L1s[0].SwitchTries)
	}
	sys.L1s[0].HLEnd()
	sys.L1s[0].Tx.Reset()
	drain(e)
}

func TestTLWaitsOutActiveSTL(t *testing.T) {
	e, sys, _ := tsys(t, htmlockCfg(true))
	// Core 0 becomes STL via overflow.
	sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	sets := sys.L1s[0].Array().Sets()
	for i := 0; i < 5; i++ {
		access(t, e, sys, 0, mem.Line(64+i*sets), true)
		drain(e)
	}
	// Core 1 applies for TL: must wait.
	granted := false
	sys.L1s[1].HLBegin(func() { granted = true })
	drain(e)
	if granted {
		t.Fatal("TL granted while STL active")
	}
	sys.L1s[0].HLEnd()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if !granted {
		t.Fatal("TL not granted after STL release")
	}
	sys.L1s[1].Tx.BeginAttempt(htm.TL, e.Now())
	sys.L1s[1].HLEnd()
	sys.L1s[1].Tx.Reset()
	drain(e)
}

func TestHTMReadSharesWithLockTxReadSet(t *testing.T) {
	e, sys, cl := tsys(t, htmlockCfg(false))
	enterTL(t, sys, 0)
	access(t, e, sys, 0, 100, false) // lock tx READS line 100
	drain(e)
	// Another core reading the same line is not a conflict.
	sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
	access(t, e, sys, 1, 100, false)
	drain(e)
	if len(cl[0].dooms)+len(cl[1].dooms) != 0 {
		t.Fatal("read-read with lock tx should not conflict")
	}
	if st(sys, 0, 100) != cache.Shared || st(sys, 1, 100) != cache.Shared {
		t.Fatal("expected shared copies")
	}
	sys.L1s[0].HLEnd()
	sys.L1s[0].Tx.Reset()
	drain(e)
}

func TestReadSignatureAllowsSharedRead(t *testing.T) {
	e, sys, _ := tsys(t, htmlockCfg(false))
	enterTL(t, sys, 0)
	sets := sys.L1s[0].Array().Sets()
	// Lock tx reads 5 lines in one set: one spills to OfRdSig.
	for i := 0; i < 5; i++ {
		access(t, e, sys, 0, mem.Line(64+i*sets), false)
		drain(e)
	}
	spilled := mem.Line(64)
	if !sys.Arbiter.OfRd.MayContain(spilled) {
		t.Fatal("read signature missing the spilled line")
	}
	// Another core reads it non-transactionally. There is no other copy,
	// so the LLC would grant E — which must be rejected (paper §III-B).
	done := tryAccess(e, sys, 1, spilled, false)
	for i := 0; i < 20000 && !*done; i++ {
		if !e.Step() {
			break
		}
	}
	if *done {
		t.Fatal("exclusive grant of an OfRdSig line must be rejected")
	}
	sys.L1s[0].HLEnd()
	sys.L1s[0].Tx.Reset()
	drain(e)
	if !*done {
		t.Fatal("not woken after hlend")
	}
}
