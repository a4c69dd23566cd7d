package htm

import (
	"testing"

	"repro/internal/mem"
)

func TestArbiterSTLGrantDeny(t *testing.T) {
	a := NewArbiter(256)
	if a.Holder() != -1 || a.HolderMode() != NonTx {
		t.Fatal("fresh arbiter should be idle")
	}
	if !a.ApplySTL(3) {
		t.Fatal("first STL application must be granted")
	}
	if a.Holder() != 3 || a.HolderMode() != STL {
		t.Fatal("holder not recorded")
	}
	if a.ApplySTL(5) {
		t.Fatal("second STL application must be denied")
	}
	a.Release(3)
	if a.Holder() != -1 {
		t.Fatal("release incomplete")
	}
	if a.Grants != 1 || a.Denies != 1 {
		t.Fatalf("stats: grants=%d denies=%d", a.Grants, a.Denies)
	}
}

func TestArbiterTLQueuesBehindSTL(t *testing.T) {
	a := NewArbiter(256)
	if !a.ApplySTL(1) {
		t.Fatal("grant")
	}
	granted := -1
	a.SendGrant = func(core int) { granted = core }
	a.ApplyTL(2)
	if granted >= 0 {
		t.Fatal("TL must wait while STL active")
	}
	// New STL applications are denied while a TL waits (it would starve TL).
	if a.ApplySTL(7) {
		t.Fatal("STL must not jump a waiting TL")
	}
	a.Release(1)
	if granted != 2 {
		t.Fatalf("queued TL must be granted on release, granted %d", granted)
	}
	if a.Holder() != 2 || a.HolderMode() != TL {
		t.Fatal("TL holder wrong")
	}
	if a.QueuedGrants != 1 {
		t.Fatal("QueuedGrants not counted")
	}
	a.Release(2)
}

func TestArbiterTLImmediateWhenIdle(t *testing.T) {
	a := NewArbiter(256)
	granted := -1
	a.SendGrant = func(core int) { granted = core }
	a.ApplyTL(4)
	if granted != 4 || a.HolderMode() != TL {
		t.Fatal("idle arbiter must grant TL immediately")
	}
}

func TestArbiterSignatureConflicts(t *testing.T) {
	a := NewArbiter(2048)
	if !a.ApplySTL(0) {
		t.Fatal("grant")
	}
	a.RecordOverflow(0, mem.Line(10), false, true) // write overflow
	a.RecordOverflow(0, mem.Line(20), true, false) // read overflow

	// Write-signature hit conflicts with everything from other cores.
	if !a.SigConflict(1, 10, false, false) {
		t.Fatal("read of OfWr line must conflict")
	}
	if !a.SigConflict(1, 10, true, false) {
		t.Fatal("write of OfWr line must conflict")
	}
	// Read-signature hit conflicts only with store permission.
	if a.SigConflict(1, 20, false, false) {
		t.Fatal("shared read of OfRd line must not conflict")
	}
	if !a.SigConflict(1, 20, true, false) {
		t.Fatal("write of OfRd line must conflict")
	}
	if !a.SigConflict(1, 20, false, true) {
		t.Fatal("exclusive read of OfRd line must conflict (paper §III-B)")
	}
	// The holder itself never conflicts.
	if a.SigConflict(0, 10, true, true) {
		t.Fatal("holder must not conflict with its own signatures")
	}
	// Unrelated line: no conflict.
	if a.SigConflict(1, 999, true, true) {
		t.Fatal("unrelated line conflicted (or an unlucky false positive)")
	}
}

func TestArbiterWakesRejected(t *testing.T) {
	a := NewArbiter(256)
	woken := map[int]bool{}
	a.SendWake = func(c int) { woken[c] = true }
	if !a.ApplySTL(0) {
		t.Fatal("grant")
	}
	a.NoteRejected(5)
	a.NoteRejected(9)
	a.Release(0)
	if !woken[5] || !woken[9] || len(woken) != 2 {
		t.Fatalf("woken = %v", woken)
	}
	// Signatures must be clear after release.
	if !a.OfRd.Empty() || !a.OfWr.Empty() {
		t.Fatal("signatures survive release")
	}
}

func TestArbiterReleaseByNonHolderPanics(t *testing.T) {
	a := NewArbiter(256)
	a.ApplySTL(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Release(2)
}

func TestArbiterOverflowByNonHolderPanics(t *testing.T) {
	a := NewArbiter(256)
	a.ApplySTL(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.RecordOverflow(2, 1, true, false)
}

func TestArbiterNoConflictWhenIdle(t *testing.T) {
	a := NewArbiter(256)
	if a.SigConflict(1, 10, true, true) {
		t.Fatal("idle arbiter must never conflict")
	}
}
