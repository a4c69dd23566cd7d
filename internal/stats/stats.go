// Package stats collects the measurements the paper's evaluation reports:
// the per-core execution-time breakdown (Figs. 9 and 11), transaction
// commit rates (Fig. 8), and the abort-cause distribution (Fig. 10).
package stats

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/htm"
	"repro/internal/trace"
)

// Category partitions every core cycle, matching the paper's breakdown:
// htm (useful speculative work), aborted (wasted speculative work), lock
// (inside a lock-mode critical section), switchLock (a transaction that
// successfully switched to HTMLock mode — Fig. 11's new category),
// non-tran (non-transactional work and barriers), waitlock (waiting to
// acquire or for the release of the fallback lock), and rollback
// (abort penalty and backoff).
type Category uint8

const (
	CatHTM Category = iota
	CatAborted
	CatLock
	CatSwitchLock
	CatNonTx
	CatWaitLock
	CatRollback
	NumCategories
)

func (c Category) String() string {
	names := [...]string{"htm", "aborted", "lock", "switchLock", "non-tran", "waitlock", "rollback"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Core accumulates one hardware thread's measurements.
type Core struct {
	// ID is the core's index within the run.
	ID int
	// Sink, when non-nil, receives every closed non-empty cycle segment as
	// a trace.KindSegment event: the telemetry layer builds Chrome-trace
	// spans and cycle-share curves from them without a second accounting
	// pass.
	Sink trace.Observer

	Cycles [NumCategories]uint64

	// Transaction accounting. Attempts counts speculative (HTM) execution
	// attempts; Commits those that committed; Aborts[cause] those that
	// rolled back, by cause. Lock-mode executions (TL/STL/mutex) are
	// counted separately.
	Attempts uint64
	Commits  uint64
	Aborts   [int(htm.CauseFault) + 1]uint64

	LockRuns   uint64 // sections executed on the fallback path (TL/mutex)
	SwitchRuns uint64 // sections that committed after switching to STL

	Sections uint64 // atomic sections completed
	Barriers uint64

	// Internal segment tracking.
	segStart uint64
	segCat   Category
}

// StartSegment begins attributing cycles to the category at time now.
func (c *Core) StartSegment(cat Category, now uint64) {
	c.CloseAs(c.segCat, cat, now)
}

// CloseAs flushes the open segment into `as` — regardless of what category
// it was opened under — and starts a new segment in next. Speculative
// attempts need this: their cycles are attributed tentatively to htm and
// reclassified (aborted / switchLock) only once the attempt's fate is
// known.
func (c *Core) CloseAs(as, next Category, now uint64) {
	c.Cycles[as] += now - c.segStart
	if o := c.Sink; o != nil && now > c.segStart {
		o.Event(trace.Event{Kind: trace.KindSegment, Core: c.ID, Seg: uint8(as), Start: c.segStart, End: now})
	}
	c.segStart = now
	c.segCat = next
}

// Finish closes the last segment at time now.
func (c *Core) Finish(now uint64) { c.StartSegment(CatNonTx, now) }

// Abort records an aborted attempt.
func (c *Core) Abort(cause htm.AbortCause) {
	c.Aborts[cause]++
}

// TotalCycles returns the sum over all categories.
func (c *Core) TotalCycles() uint64 {
	var t uint64
	for _, v := range c.Cycles {
		t += v
	}
	return t
}

// Run aggregates a whole simulation's results.
type Run struct {
	System   string
	Workload string
	Threads  int
	Cores    []*Core
	// ExecCycles is the makespan: the cycle at which the last thread
	// finished its program.
	ExecCycles uint64
	// Traffic is the memory-subsystem activity summary.
	Traffic Traffic
	// Transitions is the protocol-table heat profile: how often each
	// declared transition fired (see transitions.go).
	Transitions []TransitionCount
	// EventsExecuted is the number of simulation events the engine
	// dispatched, deterministic for a spec.
	EventsExecuted uint64
	// FusedRuns is always 0: it counted the removed event-fusion fast
	// path's inline runs (DESIGN.md §10) and stays only for readers that
	// still report it.
	FusedRuns uint64
}

// NewRun allocates per-core accumulators.
func NewRun(system, workload string, threads int) *Run {
	r := &Run{System: system, Workload: workload, Threads: threads}
	for i := 0; i < threads; i++ {
		r.Cores = append(r.Cores, &Core{ID: i, segCat: CatNonTx})
	}
	return r
}

// CommitRate returns committed / attempted HTM transactions across all
// cores (1.0 when nothing speculative ran — e.g. CGL).
func (r *Run) CommitRate() float64 {
	var att, com uint64
	for _, c := range r.Cores {
		att += c.Attempts
		com += c.Commits
	}
	if att == 0 {
		return 1
	}
	return float64(com) / float64(att)
}

// TotalAborts sums aborts by cause across cores.
func (r *Run) TotalAborts() (total uint64, byCause map[htm.AbortCause]uint64) {
	byCause = make(map[htm.AbortCause]uint64)
	for _, c := range r.Cores {
		for cause, n := range c.Aborts {
			if n > 0 && cause != int(htm.CauseNone) {
				byCause[htm.AbortCause(cause)] += n
				total += n
			}
		}
	}
	return
}

// AbortShare returns each cause's share of all aborts, normalized to the
// number of attempts (Fig. 10 plots "percentage of different reasons for
// the abort of transactions").
func (r *Run) AbortShare() map[htm.AbortCause]float64 {
	total, by := r.TotalAborts()
	out := make(map[htm.AbortCause]float64)
	if total == 0 {
		return out
	}
	for cause, n := range by {
		out[cause] = float64(n) / float64(total)
	}
	return out
}

// Breakdown returns the fraction of total core cycles in each category
// (Figs. 9 and 11).
func (r *Run) Breakdown() [NumCategories]float64 {
	var cyc [NumCategories]uint64
	var total uint64
	for _, c := range r.Cores {
		for i, v := range c.Cycles {
			cyc[i] += v
			total += v
		}
	}
	var out [NumCategories]float64
	if total == 0 {
		return out
	}
	for i, v := range cyc {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// Sections returns the total atomic sections completed (sanity: must equal
// the workload's section count regardless of system).
func (r *Run) Sections() uint64 {
	var t uint64
	for _, c := range r.Cores {
		t += c.Sections
	}
	return t
}

// String formats a compact single-run summary.
func (r *Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s t=%d cycles=%d commit=%.3f", r.Workload, r.System, r.Threads, r.ExecCycles, r.CommitRate())
	_, by := r.TotalAborts()
	if len(by) > 0 {
		causes := make([]htm.AbortCause, 0, len(by))
		for c := range by {
			causes = append(causes, c)
		}
		sort.Slice(causes, func(i, j int) bool { return causes[i] < causes[j] })
		b.WriteString(" aborts:")
		for _, c := range causes {
			fmt.Fprintf(&b, " %s=%d", c, by[c])
		}
	}
	return b.String()
}
