// Package htm holds the transactional-memory state machines and policy
// objects shared by the L1/LLC coherence controllers and the core model:
// transaction modes (HTM / TL / STL), the abort-cause taxonomy used by the
// paper's Fig. 10, the reject-handling policies of the recovery mechanism,
// the LLC overflow signatures of the HTMLock mechanism, and the centralized
// LLC arbiter that serializes HTMLock-mode entry under switchingMode.
package htm

import (
	"fmt"

	"repro/internal/priority"
)

// Mode is the execution mode of a hardware thread with respect to the
// transactional machinery.
type Mode uint8

const (
	// NonTx: not inside any atomic section.
	NonTx Mode = iota
	// HTM: inside a speculative best-effort HTM transaction.
	HTM
	// TL (Transactional Lock): inside an HTMLock-mode lock transaction
	// entered the normal way — fallback lock held, hlbegin executed.
	TL
	// STL (Switched Transactional Lock): inside an HTMLock-mode lock
	// transaction entered by proactively switching from HTM mode
	// (switchingMode mechanism); the fallback lock is NOT held.
	STL
	// Mutex: inside a critical section protected by a plain lock with no
	// transactional tracking (the baseline fallback path, and CGL).
	Mutex
)

// Lock reports whether the mode is an irrevocable HTMLock-mode lock
// transaction (TL or STL).
func (m Mode) Lock() bool { return m == TL || m == STL }

// Speculative reports whether the mode can be rolled back.
func (m Mode) Speculative() bool { return m == HTM }

func (m Mode) String() string {
	switch m {
	case NonTx:
		return "non-tx"
	case HTM:
		return "htm"
	case TL:
		return "TL"
	case STL:
		return "STL"
	case Mutex:
		return "mutex"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// AbortCause classifies why a transaction aborted — the six categories of
// the paper's Fig. 10.
type AbortCause uint8

const (
	// CauseNone marks "no abort".
	CauseNone AbortCause = iota
	// CauseMC: conflict with another HTM transaction ("mc").
	CauseMC
	// CauseLock: conflict with an HTMLock-mode lock transaction ("lock").
	CauseLock
	// CauseMutex: killed by fallback-lock acquisition — either the
	// subscribed lock line was written or the lock was observed held at
	// xbegin ("mutex").
	CauseMutex
	// CauseNonTx: conflict with a plain non-transactional access
	// ("non_tran").
	CauseNonTx
	// CauseOverflow: transactional read/write set overflowed the L1 ("of").
	CauseOverflow
	// CauseFault: exception inside the transaction ("fault").
	CauseFault
	numCauses
)

// NumCauses is the number of distinct abort causes (excluding CauseNone).
const NumCauses = int(numCauses) - 1

func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseMC:
		return "mc"
	case CauseLock:
		return "lock"
	case CauseMutex:
		return "mutex"
	case CauseNonTx:
		return "non_tran"
	case CauseOverflow:
		return "of"
	case CauseFault:
		return "fault"
	}
	return fmt.Sprintf("AbortCause(%d)", uint8(c))
}

// RejectPolicy selects what a requester does when the recovery mechanism
// rejects one of its requests (paper §III-A "wake up rejected requests":
// abort directly, pause for a fixed period before retrying, or wait for a
// wake-up before retrying). These are the -RAI / -RRI / -RWI rows of
// Table II.
type RejectPolicy uint8

const (
	// SelfAbort: the rejected transaction aborts itself immediately (RAI).
	SelfAbort RejectPolicy = iota
	// RetryLater: hold the request and retry after a fixed backoff (RRI).
	RetryLater
	// WaitWakeup: hold the request until the rejecting core commits or
	// aborts and sends a wake-up (RWI). A timeout still guards against
	// lost wake-ups.
	WaitWakeup
)

func (p RejectPolicy) String() string {
	switch p {
	case SelfAbort:
		return "self-abort"
	case RetryLater:
		return "retry-later"
	case WaitWakeup:
		return "wait-wakeup"
	}
	return fmt.Sprintf("RejectPolicy(%d)", uint8(p))
}

// Config is the HTM half of one Table II system: the two policy seams the
// coherence controllers consult (see policy.go), the priority policy, the
// HTMLock mechanism, and the two sizes. Each Table II row is one Config
// (see harness.Systems).
type Config struct {
	// Conflict arbitrates speculative conflicts and decides the fate of
	// rejected requests: RequesterWins (plain best-effort HTM), Recovery
	// with one of the three rejected-request policies, or Losa.
	Conflict ConflictPolicy
	// Overflow decides capacity-overflow handling: AbortOverflow, or
	// SwitchOverflow (switchingMode, which requires HTMLock).
	Overflow OverflowPolicy
	// Priority is the transaction priority policy (nil means every
	// transaction has priority zero, i.e. ties broken by core ID only).
	Priority priority.Policy
	// HTMLock enables the HTMLock mechanism: the fallback path runs as a
	// TL lock transaction that coexists with HTM transactions, and HTM
	// transactions do not subscribe to the fallback lock.
	HTMLock bool
	// MaxRetries is the retry budget before a transaction takes the
	// fallback path (Listing 1's TME_MAX_RETRIES).
	MaxRetries int
	// SignatureBits sizes the LLC overflow signatures (OfRdSig/OfWrSig).
	SignatureBits int
}

const (
	// RejectTimeout bounds how long a parked request waits for a wake-up
	// before retrying anyway (guards against lost wake-ups). Cycles.
	RejectTimeout = 20_000
	// RetryBackoff is the fixed pause of the RetryLater policy. Cycles.
	RetryBackoff = 200
)

// Validate panics on inconsistent configurations; it is called when the
// memory system is constructed so mistakes fail fast.
func (c Config) Validate() {
	if c.MaxRetries <= 0 {
		panic("htm: MaxRetries must be positive")
	}
	if c.HTMLock && c.SignatureBits <= 0 {
		panic("htm: HTMLock requires SignatureBits > 0")
	}
	if c.Conflict == nil || c.Overflow == nil {
		panic("htm: Config used without Defaults (no conflict/overflow policy)")
	}
	if _, ok := c.Overflow.(SwitchOverflow); ok && !c.HTMLock {
		panic("htm: SwitchOverflow requires HTMLock")
	}
}

// Defaults fills what is unset: a nil Conflict with RequesterWins, a nil
// Overflow with AbortOverflow, and the two sizes.
func (c Config) Defaults() Config {
	if c.Conflict == nil {
		c.Conflict = RequesterWins{}
	}
	if c.Overflow == nil {
		c.Overflow = AbortOverflow{}
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 5
	}
	if c.SignatureBits == 0 {
		c.SignatureBits = 2048
	}
	return c
}
