package htm

import "testing"

// TestOwnerWinsMatrix exercises every ConflictPolicy against requester-older
// (owner outranked) and requester-younger (owner outranks) speculative
// conflicts. Older = higher priority under the insts-based policy; ties are
// core-ID-broken by priority.Wins.
func TestOwnerWinsMatrix(t *testing.T) {
	older := ConflictSide{Mode: HTM, Prio: 100, Core: 1}
	younger := ConflictSide{Mode: HTM, Prio: 10, Core: 2}

	arbitrated := []ConflictPolicy{
		Recovery{Policy: SelfAbort},
		Recovery{Policy: RetryLater},
		Recovery{Policy: WaitWakeup},
		Losa{},
	}
	for _, p := range arbitrated {
		if !p.OwnerWins(older, younger) {
			t.Errorf("%s: older owner must defeat younger requester", p.Name())
		}
		if p.OwnerWins(younger, older) {
			t.Errorf("%s: younger owner must yield to older requester", p.Name())
		}
		// Priority tie → smaller core ID wins.
		a := ConflictSide{Mode: HTM, Prio: 50, Core: 0}
		b := ConflictSide{Mode: HTM, Prio: 50, Core: 3}
		if !p.OwnerWins(a, b) || p.OwnerWins(b, a) {
			t.Errorf("%s: priority tie must break toward smaller core ID", p.Name())
		}
	}

	rw := RequesterWins{}
	if rw.OwnerWins(older, younger) || rw.OwnerWins(younger, older) {
		t.Error("requester-win: owner must never win, regardless of age")
	}
}

// TestRejectedMatrix covers all three RejectPolicy values for HTM
// requesters, plus the non-HTM hold-and-retry behaviour every policy shares.
func TestRejectedMatrix(t *testing.T) {
	const backoff, timeout = RetryBackoff, RejectTimeout
	cases := []struct {
		policy RejectPolicy
		want   RejectedDecision
	}{
		{SelfAbort, RejectedDecision{Abort: true}},
		{RetryLater, RejectedDecision{Timeout: backoff}},
		{WaitWakeup, RejectedDecision{Timeout: timeout}},
	}
	for _, c := range cases {
		r := Recovery{Policy: c.policy}
		if got := r.Rejected(HTM); got != c.want {
			t.Errorf("recovery/%s Rejected(HTM) = %+v, want %+v", c.policy, got, c.want)
		}
		// Non-speculative requesters have nothing to abort: always park.
		for _, m := range []Mode{NonTx, Mutex, TL, STL} {
			if got := r.Rejected(m); got != (RejectedDecision{Timeout: timeout}) {
				t.Errorf("recovery/%s Rejected(%s) = %+v, want park %d", c.policy, m, got, timeout)
			}
		}
	}
	if got := (RequesterWins{}).Rejected(HTM); got != (RejectedDecision{Timeout: timeout}) {
		t.Errorf("requester-win Rejected(HTM) = %+v", got)
	}
	if got := (Losa{}).Rejected(HTM); got != (RejectedDecision{Timeout: timeout}) {
		t.Errorf("losa Rejected(HTM) = %+v", got)
	}
}

func TestRecordsWake(t *testing.T) {
	for _, c := range []struct {
		p    ConflictPolicy
		mode Mode
		want bool
	}{
		{Recovery{Policy: SelfAbort}, HTM, false},
		{Recovery{Policy: RetryLater}, HTM, false},
		{Recovery{Policy: WaitWakeup}, HTM, true},
		{Recovery{Policy: SelfAbort}, NonTx, true},
		{Recovery{Policy: RetryLater}, Mutex, true},
		{RequesterWins{}, HTM, false},
		{RequesterWins{}, NonTx, true},
		{Losa{}, HTM, true},
		{Losa{}, NonTx, true},
	} {
		if got := c.p.RecordsWake(c.mode); got != c.want {
			t.Errorf("%s RecordsWake(%s) = %v, want %v", c.p.Name(), c.mode, got, c.want)
		}
	}
}

func TestCauseFor(t *testing.T) {
	for _, c := range []struct {
		winner Mode
		want   AbortCause
	}{
		{HTM, CauseMC}, {TL, CauseLock}, {STL, CauseLock},
		{Mutex, CauseMutex}, {NonTx, CauseNonTx},
	} {
		if got := CauseFor(c.winner); got != c.want {
			t.Errorf("CauseFor(%s) = %s, want %s", c.winner, got, c.want)
		}
	}
}

func TestArbDelay(t *testing.T) {
	if d := (Losa{}).ArbDelay(); d != 1 {
		t.Errorf("losa ArbDelay = %d, want 1", d)
	}
	if d := (Recovery{}).ArbDelay(); d != 0 {
		t.Errorf("recovery ArbDelay = %d, want 0", d)
	}
}

// TestOverflowMatrix covers both OverflowPolicy values across modes and the
// triedSwitch/external qualifiers.
func TestOverflowMatrix(t *testing.T) {
	for _, c := range []struct {
		p          OverflowPolicy
		mode       Mode
		tried, ext bool
		want       OverflowDecision
	}{
		{AbortOverflow{}, HTM, false, false, OverflowAbort},
		{AbortOverflow{}, TL, false, false, OverflowSpill},
		{AbortOverflow{}, STL, false, true, OverflowSpill},
		{SwitchOverflow{}, HTM, false, false, OverflowSwitch},
		{SwitchOverflow{}, HTM, true, false, OverflowAbort}, // already applied once
		{SwitchOverflow{}, HTM, false, true, OverflowAbort}, // recall, not own allocation
		{SwitchOverflow{}, TL, false, false, OverflowSpill},
		{SwitchOverflow{}, STL, false, false, OverflowSpill},
	} {
		if got := c.p.Decide(c.mode, c.tried, c.ext); got != c.want {
			t.Errorf("%s Decide(%s, tried=%v, ext=%v) = %d, want %d",
				c.p.Name(), c.mode, c.tried, c.ext, got, c.want)
		}
	}
}

// TestDefaultsComposition checks that Defaults fills only what is unset:
// a bare Config gets the requester-win, abort-on-overflow baseline, and an
// explicit policy survives untouched.
func TestDefaultsComposition(t *testing.T) {
	got := Config{}.Defaults()
	if got.Conflict != (RequesterWins{}) || got.Overflow != (AbortOverflow{}) {
		t.Errorf("bare Config composed %+v / %+v, want requester-win / abort", got.Conflict, got.Overflow)
	}
	pre := Config{Conflict: Recovery{Policy: RetryLater}, Overflow: SwitchOverflow{}}.Defaults()
	if pre.Conflict != (Recovery{Policy: RetryLater}) || pre.Overflow != (SwitchOverflow{}) {
		t.Errorf("Defaults overwrote explicit policies: %+v / %+v", pre.Conflict, pre.Overflow)
	}
}
