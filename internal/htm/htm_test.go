package htm

import (
	"testing"

	"repro/internal/priority"
)

func TestModePredicates(t *testing.T) {
	if !TL.Lock() || !STL.Lock() || HTM.Lock() || NonTx.Lock() || Mutex.Lock() {
		t.Fatal("Lock() wrong")
	}
	if !HTM.Speculative() || TL.Speculative() {
		t.Fatal("Speculative() wrong")
	}
	for m, want := range map[Mode]string{NonTx: "non-tx", HTM: "htm", TL: "TL", STL: "STL", Mutex: "mutex"} {
		if m.String() != want {
			t.Fatalf("Mode string %d = %q", m, m.String())
		}
	}
}

func TestAbortCauseStrings(t *testing.T) {
	want := map[AbortCause]string{
		CauseNone: "none", CauseMC: "mc", CauseLock: "lock", CauseMutex: "mutex",
		CauseNonTx: "non_tran", CauseOverflow: "of", CauseFault: "fault",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("cause %d = %q, want %q", c, c.String(), s)
		}
	}
	if NumCauses != 6 {
		t.Fatalf("NumCauses = %d", NumCauses)
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{Conflict: Recovery{Policy: WaitWakeup}, MaxRetries: 4, HTMLock: true, SignatureBits: 64}.Defaults()
	ok.Validate()

	rw, ab := RequesterWins{}, AbortOverflow{}
	for _, bad := range []Config{
		{Conflict: rw, Overflow: SwitchOverflow{}, MaxRetries: 4, SignatureBits: 64}, // switching without HTMLock
		{Conflict: rw, Overflow: ab, SignatureBits: 64},                              // no retries
		{Conflict: rw, Overflow: ab, HTMLock: true, MaxRetries: 4},                   // no signature bits
		{MaxRetries: 4}, // no policies
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Validate accepted bad config %+v", bad)
				}
			}()
			bad.Validate()
		}()
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.MaxRetries == 0 || c.SignatureBits == 0 {
		t.Fatalf("Defaults left zeros: %+v", c)
	}
	c2 := Config{MaxRetries: 3}.Defaults()
	if c2.MaxRetries != 3 {
		t.Fatal("Defaults must not override explicit values")
	}
}

func TestTxStatePriority(t *testing.T) {
	tx := &TxState{Core: 1, Cfg: Config{Priority: priority.InstsBased{}}}
	tx.BeginAttempt(HTM, 100)
	if tx.Priority() != 0 {
		t.Fatal("fresh attempt should have zero priority")
	}
	tx.InstsRetired = 42
	if tx.Priority() != 42 {
		t.Fatalf("priority = %d", tx.Priority())
	}
	tx.Mode = TL
	if tx.Priority() != priority.Max {
		t.Fatal("TL must have max priority")
	}
	tx.Mode = STL
	if tx.Priority() != priority.Max {
		t.Fatal("STL must have max priority")
	}
	tx.Mode = NonTx
	if tx.Priority() != 0 {
		t.Fatal("non-tx priority must be 0")
	}
}

func TestTxStateDoomOnce(t *testing.T) {
	tx := &TxState{}
	tx.BeginAttempt(HTM, 0)
	tx.Doom(CauseMC)
	tx.Doom(CauseOverflow) // must not overwrite
	if tx.DoomCause != CauseMC {
		t.Fatalf("DoomCause = %v", tx.DoomCause)
	}
	tx.BeginAttempt(HTM, 10)
	if tx.Doomed || tx.DoomCause != CauseNone {
		t.Fatal("BeginAttempt must clear doom")
	}
	if tx.Attempt != 2 {
		t.Fatalf("Attempt = %d", tx.Attempt)
	}
	tx.Reset()
	if tx.Attempt != 0 || tx.Mode != NonTx || tx.TriedSwitch {
		t.Fatal("Reset incomplete")
	}
}

func TestTxStateProgressionPriority(t *testing.T) {
	tx := &TxState{Cfg: Config{Priority: priority.Progression{}}}
	tx.BeginAttempt(HTM, 0)
	tx.ReadLines, tx.WriteLines = 4, 3
	if tx.Priority() != 7 {
		t.Fatalf("progression priority = %d", tx.Priority())
	}
}
