package htm

import "repro/internal/priority"

// This file defines the two policy seams PR 3 pulled out of the coherence
// controllers' case arms, following FORTH's limited-set HTM observation that
// conflict handling can be layered on an unmodified coherence protocol:
//
//   - ConflictPolicy: what a transactional owner does with a conflicting
//     request (reject or yield) and what a rejected requester does with the
//     reject (self-abort, timed retry, wait for a wake-up) — the recovery
//     mechanism of paper §III-A and the -RAI/-RRI/-RWI rows of Table II;
//   - OverflowPolicy: what a transaction does when its read/write set
//     overflows the L1 (abort, spill into the LLC signatures, or switch to
//     STL mode) — the HTMLock and switchingMode mechanisms of §III-B/C.
//
// Each Table II SystemDef row is a composition of one value of each
// interface, plus a priority.Policy and the HTMLock switch; Config.Defaults
// fills a nil policy with RequesterWins or AbortOverflow.
//
// The universal arbitration rules are NOT policy and stay in the coherence
// controllers: an irrevocable lock transaction (TL/STL) always wins, and a
// non-speculative requester (NonTx/Mutex) always defeats a speculative
// owner — best-effort HTM's strong isolation. Policies only decide the
// speculative-vs-speculative cases.

// ConflictSide describes one party of a conflict: its execution mode, its
// piggybacked priority (the recovery mechanism's user-defined request
// data), and its core ID (the deterministic tie-breaker).
type ConflictSide struct {
	Mode Mode
	Prio uint64
	Core int
}

// RejectedDecision tells a rejected requester what to do: abort the
// transaction, or hold the request parked in its MSHR and retry after
// Timeout cycles (an earlier wake-up retries sooner).
type RejectedDecision struct {
	Abort   bool
	Timeout uint64
}

// ConflictPolicy decides conflicts between speculative transactions and the
// fate of rejected requests.
type ConflictPolicy interface {
	// Name identifies the policy in docs and Table II renderings.
	Name() string
	// OwnerWins arbitrates a speculative owner against a speculative
	// requester (Fig. 4's green logic). The universal rules (lock wins,
	// non-speculative wins) are applied by the caller first.
	OwnerWins(owner, req ConflictSide) bool
	// Rejected returns what a requester in mode does when its request
	// comes back rejected.
	Rejected(mode Mode) RejectedDecision
	// RejectorCause classifies the abort cause when a rejected HTM
	// transaction gives up, from the rejector's mode. The fallback-lock
	// special case (CauseMutex) is handled by the caller, which knows the
	// lock's address.
	RejectorCause(rejector Mode) AbortCause
	// ArbDelay is the extra arbitration latency (cycles) the owner's cache
	// controller pays before sending a reject.
	ArbDelay() uint64
	// RecordsWake reports whether a rejected requester in mode will park
	// awaiting a wake-up, i.e. whether the rejector must record it in the
	// wake-up table (paper Fig. 2 (8)).
	RecordsWake(mode Mode) bool
}

// RequesterWins is the no-arbitration baseline: a speculative owner never
// rejects, so every conflict aborts the owner. Rejections can still reach a
// requester (LLC signature hits under HTMLock); they park for RejectTimeout.
type RequesterWins struct{}

func (RequesterWins) Name() string                     { return "requester-win" }
func (RequesterWins) OwnerWins(_, _ ConflictSide) bool { return false }
func (RequesterWins) Rejected(Mode) RejectedDecision   { return RejectedDecision{Timeout: RejectTimeout} }
func (RequesterWins) RejectorCause(r Mode) AbortCause  { return CauseFor(r) }
func (RequesterWins) ArbDelay() uint64                 { return 0 }
func (RequesterWins) RecordsWake(mode Mode) bool       { return mode != HTM }

// Recovery is the Lockiller recovery mechanism (§III-A): priority-arbitrated
// rejection of toxic requests with one of the three rejected-request
// policies. One value per -RAI/-RRI/-RWI Table II row. RetryLater pauses
// RetryBackoff cycles; RejectTimeout guards WaitWakeup parks (and all
// non-HTM parks) against lost wake-ups.
type Recovery struct {
	Policy RejectPolicy
}

func (r Recovery) Name() string { return "recovery/" + r.Policy.String() }

func (Recovery) OwnerWins(owner, req ConflictSide) bool {
	return priority.Wins(owner.Prio, owner.Core, req.Prio, req.Core)
}

func (r Recovery) Rejected(mode Mode) RejectedDecision {
	if mode == HTM {
		switch r.Policy {
		case SelfAbort:
			return RejectedDecision{Abort: true}
		case RetryLater:
			return RejectedDecision{Timeout: RetryBackoff}
		case WaitWakeup:
			return RejectedDecision{Timeout: RejectTimeout}
		}
	}
	// Plain, mutex-mode, and lock-mode requesters always hold and retry:
	// they have no transaction to abort. (A lock transaction is never
	// rejected — it carries the maximum priority — but a signature race
	// during its entry resolves here too.)
	return RejectedDecision{Timeout: RejectTimeout}
}

func (Recovery) RejectorCause(r Mode) AbortCause { return CauseFor(r) }
func (Recovery) ArbDelay() uint64                { return 0 }

func (r Recovery) RecordsWake(mode Mode) bool {
	// Only WaitWakeup parks an HTM requester until a wake-up; under the
	// other policies recording it would be dead weight. Non-HTM requesters
	// always park and always benefit from an early wake.
	return mode != HTM || r.Policy == WaitWakeup
}

// Losa is the LosaTM-SAFU conflict manager: wait-wakeup rejection under
// progression-based priority, with the extra arbitration cycle its paper
// charges the cache controller in exceptional cases.
type Losa struct{}

func (Losa) Name() string { return "losa-safu" }

func (Losa) OwnerWins(owner, req ConflictSide) bool {
	return priority.Wins(owner.Prio, owner.Core, req.Prio, req.Core)
}

func (Losa) Rejected(Mode) RejectedDecision  { return RejectedDecision{Timeout: RejectTimeout} }
func (Losa) RejectorCause(r Mode) AbortCause { return CauseFor(r) }
func (Losa) ArbDelay() uint64                { return 1 }
func (Losa) RecordsWake(Mode) bool           { return true }

// CauseFor maps the mode of a winning requester (or rejector) to the abort
// cause recorded by the defeated transaction — the paper's Fig. 10
// taxonomy. Kept here so every ConflictPolicy shares one classification.
func CauseFor(winner Mode) AbortCause {
	switch winner {
	case HTM:
		return CauseMC
	case TL, STL:
		return CauseLock
	case Mutex:
		return CauseMutex
	default:
		return CauseNonTx
	}
}

// --- overflow -------------------------------------------------------------

// OverflowDecision is what a transaction does when its footprint no longer
// fits in the private cache hierarchy.
type OverflowDecision uint8

const (
	// OverflowAbort rolls the transaction back with a capacity cause.
	OverflowAbort OverflowDecision = iota
	// OverflowSpill evicts the line into the LLC overflow signatures
	// (paper Fig. 5 (2)); only irrevocable lock transactions may spill.
	OverflowSpill
	// OverflowSwitch revokes the request and applies to the LLC arbiter
	// for STL authorization (switchingMode, Fig. 6).
	OverflowSwitch
)

// OverflowPolicy decides capacity-overflow handling.
type OverflowPolicy interface {
	// Name identifies the policy in docs and Table II renderings.
	Name() string
	// Decide returns the overflow action for a transaction in mode.
	// triedSwitch reports a previous switchingMode application this
	// attempt; external marks overflows forced from outside (an LLC
	// back-invalidation recall) rather than by the L1's own allocation —
	// switchingMode only fires on the latter (§III-C: switch on capacity
	// overflow, not on recalls or faults).
	Decide(mode Mode, triedSwitch, external bool) OverflowDecision
}

// AbortOverflow is plain best-effort behaviour: lock transactions spill
// into the signatures (they are irrevocable), everything else aborts.
type AbortOverflow struct{}

func (AbortOverflow) Name() string { return "abort" }

func (AbortOverflow) Decide(mode Mode, _, _ bool) OverflowDecision {
	if mode.Lock() {
		return OverflowSpill
	}
	return OverflowAbort
}

// SwitchOverflow is the switchingMode mechanism: an HTM transaction's first
// own-allocation overflow applies for STL authorization instead of
// aborting.
type SwitchOverflow struct{}

func (SwitchOverflow) Name() string { return "switching-mode" }

func (SwitchOverflow) Decide(mode Mode, triedSwitch, external bool) OverflowDecision {
	if mode.Lock() {
		return OverflowSpill
	}
	if mode == HTM && !triedSwitch && !external {
		return OverflowSwitch
	}
	return OverflowAbort
}
