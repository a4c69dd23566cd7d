package stats

import (
	"fmt"
	"io"
)

// Traffic aggregates memory-subsystem activity for a run: the protocol
// counters the paper's mechanisms are designed to influence (NACKs,
// rejections, wake-ups, signature spills) plus NoC load. It is filled by
// the machine at the end of a run.
type Traffic struct {
	// NoC.
	Messages  uint64 // messages injected
	FlitHops  uint64 // flits x links traversed (bandwidth demand)
	QueueWait uint64 // cycles messages spent queued on busy links

	// L1 protocol activity.
	L1Hits, L1Misses uint64
	TxWBs            uint64 // pre-transactional writebacks
	NacksSent        uint64 // Fig. 3 self-invalidation notices
	RejectsSent      uint64 // toxic requests withdrawn (recovery)
	RejectsReceived  uint64
	WakesSent        uint64 // wake-up table drains
	SignatureSpills  uint64 // lock-tx lines overflowed into LLC signatures
	SwitchTries      uint64 // switchingMode applications
	SwitchGrants     uint64

	// Directory / LLC activity.
	DirRequests   uint64
	LLCRejections uint64 // signature-hit rejections at the LLC
	MemFetches    uint64
	BackInvals    uint64

	// Lock activity.
	LockAcquisitions uint64
	LockHandovers    uint64
}

// Merge adds o's counters into t, aggregating traffic across runs.
func (t *Traffic) Merge(o *Traffic) {
	t.Messages += o.Messages
	t.FlitHops += o.FlitHops
	t.QueueWait += o.QueueWait
	t.L1Hits += o.L1Hits
	t.L1Misses += o.L1Misses
	t.TxWBs += o.TxWBs
	t.NacksSent += o.NacksSent
	t.RejectsSent += o.RejectsSent
	t.RejectsReceived += o.RejectsReceived
	t.WakesSent += o.WakesSent
	t.SignatureSpills += o.SignatureSpills
	t.SwitchTries += o.SwitchTries
	t.SwitchGrants += o.SwitchGrants
	t.DirRequests += o.DirRequests
	t.LLCRejections += o.LLCRejections
	t.MemFetches += o.MemFetches
	t.BackInvals += o.BackInvals
	t.LockAcquisitions += o.LockAcquisitions
	t.LockHandovers += o.LockHandovers
}

// L1MissRate returns misses / (hits + misses).
func (t *Traffic) L1MissRate() float64 {
	total := t.L1Hits + t.L1Misses
	if total == 0 {
		return 0
	}
	return float64(t.L1Misses) / float64(total)
}

// Render writes a human-readable traffic summary.
func (t *Traffic) Render(w io.Writer) {
	fmt.Fprintf(w, "traffic: msgs=%d flit-hops=%d queue-wait=%d\n", t.Messages, t.FlitHops, t.QueueWait)
	fmt.Fprintf(w, "  L1: hits=%d misses=%d (%.1f%% miss) txwb=%d\n",
		t.L1Hits, t.L1Misses, 100*t.L1MissRate(), t.TxWBs)
	fmt.Fprintf(w, "  recovery: nacks=%d rejects=%d/%d wakes=%d\n",
		t.NacksSent, t.RejectsSent, t.RejectsReceived, t.WakesSent)
	fmt.Fprintf(w, "  htmlock: spills=%d llc-rejects=%d switch=%d/%d\n",
		t.SignatureSpills, t.LLCRejections, t.SwitchGrants, t.SwitchTries)
	fmt.Fprintf(w, "  dir: reqs=%d mem=%d backinval=%d  lock: acq=%d handover=%d\n",
		t.DirRequests, t.MemFetches, t.BackInvals, t.LockAcquisitions, t.LockHandovers)
}
