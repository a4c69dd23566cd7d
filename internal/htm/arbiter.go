package htm

import "repro/internal/mem"

// Arbiter is the centralized LLC-side authority for HTMLock mode. It
// guarantees that at most one transaction is in HTMLock mode (TL or STL)
// at any time (paper §III-C stipulation 2), owns the overflow signatures
// OfRdSig/OfWrSig (paper §III-B, Fig. 5), and remembers which cores were
// rejected because of a signature hit so they can be woken when the lock
// transaction finishes.
//
// The paper places this serialization point in the LLC; with a distributed
// LLC it becomes "a lightweight centralized arbiter module". The coherence
// layer models the message round-trip; this type models the decision.
type Arbiter struct {
	holder     int // core ID of the current HTMLock-mode transaction, -1 if none
	holderMode Mode
	waiting    []int // TL applicants (cores) queued behind an active STL

	// OfRd and OfWr hold the lock transaction's L1-overflowed read and
	// write sets.
	OfRd, OfWr *Signature

	// wake accumulates cores whose requests were rejected by a signature
	// hit; they are woken on Release. A WakeSet (not a map) so that the
	// wake-up order is ascending core ID: wake-ups send messages, message
	// order assigns event sequence numbers, and map iteration order would
	// leak scheduler randomness into the replay.
	wake WakeSet
	// SendWake is installed by the coherence layer to deliver wake-up
	// messages; nil is allowed in unit tests.
	SendWake func(core int)
	// SendGrant is installed by the coherence layer to deliver a TL
	// application's grant, immediate or queued; nil is allowed in unit
	// tests.
	SendGrant func(core int)

	// Stats.
	Grants, Denies, QueuedGrants uint64
}

// NewArbiter creates an arbiter with signatures of the given size.
func NewArbiter(signatureBits int) *Arbiter {
	return &Arbiter{
		holder: -1,
		OfRd:   NewSignature(signatureBits),
		OfWr:   NewSignature(signatureBits),
	}
}

// Reset returns the arbiter to its just-constructed state in place:
// signatures flash-cleared, wake table emptied, no holder, no waiters, stats
// zeroed. SendWake and SendGrant are kept — they are construction wiring
// (closures over the owning coherence system), not run state.
func (a *Arbiter) Reset() {
	a.holder = -1
	a.holderMode = NonTx
	a.waiting = a.waiting[:0]
	a.OfRd.Clear()
	a.OfWr.Clear()
	a.wake.Clear()
	a.Grants, a.Denies, a.QueuedGrants = 0, 0, 0
}

// Holder returns the core currently authorized for HTMLock mode, or -1.
func (a *Arbiter) Holder() int { return a.holder }

// HolderMode returns the mode of the current holder (TL or STL), or NonTx.
func (a *Arbiter) HolderMode() Mode {
	if a.holder < 0 {
		return NonTx
	}
	return a.holderMode
}

// ApplySTL is the switchingMode application: an HTM transaction asks to
// become an STL lock transaction without holding the fallback lock. The
// LLC's serialization makes the decision atomic: granted only if no one
// holds HTMLock mode and no TL applicant is queued.
func (a *Arbiter) ApplySTL(core int) bool {
	if a.holder >= 0 || len(a.waiting) > 0 {
		a.Denies++
		return false
	}
	a.holder = core
	a.holderMode = STL
	a.Grants++
	return true
}

// ApplyTL is the fallback path's application: the caller already holds the
// fallback lock (so at most one TL applicant exists at a time), but under
// switchingMode it must additionally wait out any active STL transaction.
// The grant goes out through SendGrant — immediately, or from the Release
// that hands the queued core authorization.
func (a *Arbiter) ApplyTL(core int) {
	if a.holder < 0 {
		a.holder = core
		a.holderMode = TL
		a.Grants++
		a.grant(core)
		return
	}
	if a.holder == core {
		panic("htm: core re-applying for HTMLock mode it already holds")
	}
	a.waiting = append(a.waiting, core)
}

func (a *Arbiter) grant(core int) {
	if a.SendGrant != nil {
		a.SendGrant(core)
	}
}

// RecordOverflow adds an L1-evicted transactional line of the current
// lock transaction to the appropriate signature(s).
func (a *Arbiter) RecordOverflow(core int, l mem.Line, read, write bool) {
	if core != a.holder {
		panic("htm: overflow recorded by non-holder")
	}
	if read {
		a.OfRd.Add(l)
	}
	if write {
		a.OfWr.Add(l)
	}
}

// SigConflict implements the LLC check of paper §III-B: a request conflicts
// with the overflowed write set always, and with the overflowed read set
// when it would obtain store permission — either an explicit write request
// or a read that would be granted an exclusive copy.
// requester==holder never conflicts (the lock transaction re-touching its
// own overflowed data).
func (a *Arbiter) SigConflict(requester int, l mem.Line, write, wouldBeExclusive bool) bool {
	if a.holder < 0 || requester == a.holder {
		return false
	}
	if a.OfWr.MayContain(l) {
		return true
	}
	if (write || wouldBeExclusive) && a.OfRd.MayContain(l) {
		return true
	}
	return false
}

// NoteRejected records a core rejected by a signature hit for wake-up when
// the lock transaction ends.
func (a *Arbiter) NoteRejected(core int) { a.wake.Add(core) }

// Release ends the holder's HTMLock mode: signatures are flash-cleared,
// rejected cores are woken, and a queued TL applicant (if any) is granted.
func (a *Arbiter) Release(core int) {
	if core != a.holder {
		panic("htm: release by non-holder")
	}
	a.holder = -1
	a.holderMode = NonTx
	a.OfRd.Clear()
	a.OfWr.Clear()
	a.wake.Drain(func(c int) {
		if a.SendWake != nil {
			a.SendWake(c)
		}
	})
	if len(a.waiting) > 0 {
		// Shift the rest down rather than slide the slice forward, so the
		// queue keeps its backing.
		core := a.waiting[0]
		a.waiting = a.waiting[:copy(a.waiting, a.waiting[1:])]
		a.holder = core
		a.holderMode = TL
		a.Grants++
		a.QueuedGrants++
		a.grant(core)
	}
}
