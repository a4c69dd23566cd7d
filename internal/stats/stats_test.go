package stats

import (
	"strings"
	"testing"

	"repro/internal/htm"
	"repro/internal/trace"
)

func TestSegmentAccounting(t *testing.T) {
	r := NewRun("sys", "wl", 1)
	c := r.Cores[0]
	c.StartSegment(CatHTM, 10)      // [0,10) non-tran
	c.StartSegment(CatWaitLock, 25) // [10,25) htm
	c.Finish(40)                    // [25,40) waitlock
	if c.Cycles[CatNonTx] != 10 || c.Cycles[CatHTM] != 15 || c.Cycles[CatWaitLock] != 15 {
		t.Fatalf("cycles = %v", c.Cycles)
	}
	if c.TotalCycles() != 40 {
		t.Fatalf("total = %d", c.TotalCycles())
	}
}

func TestCloseAsReclassifies(t *testing.T) {
	r := NewRun("sys", "wl", 1)
	c := r.Cores[0]
	c.StartSegment(CatHTM, 0)
	c.CloseAs(CatAborted, CatRollback, 100) // the attempt aborted
	c.Finish(130)
	if c.Cycles[CatHTM] != 0 {
		t.Fatal("aborted attempt cycles leaked into htm")
	}
	if c.Cycles[CatAborted] != 100 || c.Cycles[CatRollback] != 30 {
		t.Fatalf("cycles = %v", c.Cycles)
	}
}

func TestCommitRate(t *testing.T) {
	r := NewRun("s", "w", 2)
	r.Cores[0].Attempts, r.Cores[0].Commits = 10, 5
	r.Cores[1].Attempts, r.Cores[1].Commits = 10, 10
	if got := r.CommitRate(); got != 0.75 {
		t.Fatalf("commit rate = %v", got)
	}
	empty := NewRun("s", "w", 1)
	if empty.CommitRate() != 1 {
		t.Fatal("no attempts should read as 1.0 (CGL)")
	}
}

func TestAbortAccounting(t *testing.T) {
	r := NewRun("s", "w", 2)
	r.Cores[0].Abort(htm.CauseMC)
	r.Cores[0].Abort(htm.CauseMC)
	r.Cores[1].Abort(htm.CauseOverflow)
	total, by := r.TotalAborts()
	if total != 3 || by[htm.CauseMC] != 2 || by[htm.CauseOverflow] != 1 {
		t.Fatalf("total=%d by=%v", total, by)
	}
	share := r.AbortShare()
	if share[htm.CauseMC] < 0.66 || share[htm.CauseMC] > 0.67 {
		t.Fatalf("share = %v", share)
	}
}

func TestBreakdownNormalized(t *testing.T) {
	r := NewRun("s", "w", 2)
	r.Cores[0].Cycles[CatHTM] = 30
	r.Cores[0].Cycles[CatNonTx] = 70
	r.Cores[1].Cycles[CatLock] = 100
	bd := r.Breakdown()
	var sum float64
	for _, f := range bd {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("breakdown sums to %v", sum)
	}
	if bd[CatHTM] != 0.15 || bd[CatLock] != 0.5 {
		t.Fatalf("bd = %v", bd)
	}
	if z := (&Run{}).Breakdown(); z[CatHTM] != 0 {
		t.Fatal("empty run breakdown must be zeros")
	}
}

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		CatHTM: "htm", CatAborted: "aborted", CatLock: "lock",
		CatSwitchLock: "switchLock", CatNonTx: "non-tran",
		CatWaitLock: "waitlock", CatRollback: "rollback",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d = %q, want %q", c, c.String(), s)
		}
	}
}

func TestRunString(t *testing.T) {
	r := NewRun("LockillerTM", "yada", 2)
	r.ExecCycles = 123
	r.Cores[0].Attempts, r.Cores[0].Commits = 4, 2
	r.Cores[0].Abort(htm.CauseFault)
	s := r.String()
	for _, frag := range []string{"yada", "LockillerTM", "123", "fault=1"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("summary %q missing %q", s, frag)
		}
	}
}

// sinkRec records every event a core's sink receives.
type sinkRec struct{ segs []trace.Event }

func (s *sinkRec) Event(e trace.Event) { s.segs = append(s.segs, e) }

func TestCloseAsAtSegmentBoundary(t *testing.T) {
	// An abort landing exactly on the cycle the segment opened closes a
	// zero-length segment: no cycles move, and the sink must not see it.
	r := NewRun("sys", "wl", 1)
	c := r.Cores[0]
	sink := &sinkRec{}
	c.Sink = sink
	c.StartSegment(CatHTM, 50)
	c.CloseAs(CatAborted, CatRollback, 50) // abort at the boundary
	c.Finish(60)
	if c.Cycles[CatAborted] != 0 {
		t.Fatalf("zero-length abort segment accrued cycles: %v", c.Cycles)
	}
	if c.Cycles[CatRollback] != 10 {
		t.Fatalf("rollback cycles = %v", c.Cycles)
	}
	for _, s := range sink.segs {
		if s.Start == s.End {
			t.Fatalf("sink saw zero-length segment %+v", s)
		}
	}
}

func TestZeroLengthSegmentsSkipSink(t *testing.T) {
	r := NewRun("sys", "wl", 1)
	c := r.Cores[0]
	sink := &sinkRec{}
	c.Sink = sink
	c.StartSegment(CatHTM, 0)      // closes [0,0) non-tran: zero-length
	c.StartSegment(CatWaitLock, 0) // closes [0,0) htm: zero-length
	c.StartSegment(CatLock, 20)    // closes [0,20) waitlock
	c.Finish(20)                   // closes [20,20) lock: zero-length
	if len(sink.segs) != 1 {
		t.Fatalf("sink got %d segments, want 1: %+v", len(sink.segs), sink.segs)
	}
	s := sink.segs[0]
	if s.Kind != trace.KindSegment || Category(s.Seg) != CatWaitLock || s.Start != 0 || s.End != 20 || s.Core != 0 {
		t.Fatalf("segment = %+v", s)
	}
	if c.TotalCycles() != 20 {
		t.Fatalf("total = %d", c.TotalCycles())
	}
}

func TestFinishFlushesFinalSegment(t *testing.T) {
	// Finish at simulation end must flush the open segment to both the
	// cycle accumulators and the sink, and sink totals must equal the
	// accumulator totals (no cycles invisible to telemetry).
	r := NewRun("sys", "wl", 1)
	c := r.Cores[0]
	sink := &sinkRec{}
	c.Sink = sink
	c.StartSegment(CatHTM, 10)
	c.CloseAs(CatAborted, CatRollback, 25)
	c.StartSegment(CatHTM, 30)
	c.CloseAs(CatHTM, CatNonTx, 55) // committed: keep htm
	c.Finish(70)
	var sunk uint64
	for _, s := range sink.segs {
		sunk += s.End - s.Start
	}
	if sunk != c.TotalCycles() {
		t.Fatalf("sink saw %d cycles, accumulators saw %d", sunk, c.TotalCycles())
	}
	last := sink.segs[len(sink.segs)-1]
	if Category(last.Seg) != CatNonTx || last.End != 70 {
		t.Fatalf("final flush = %+v", last)
	}
	if c.Cycles[CatAborted] != 15 || c.Cycles[CatHTM] != 25 ||
		c.Cycles[CatRollback] != 5 || c.Cycles[CatNonTx] != 25 {
		t.Fatalf("cycles = %v", c.Cycles)
	}
}

func TestRenderTransitionProfileDeterministic(t *testing.T) {
	profile := []TransitionCount{
		{Table: "l1req", From: "I", On: "load", To: "StoS", Label: "miss", Count: 7},
		{Table: "l1req", From: "I", On: "store", To: "StoM", Label: "miss", Count: 9},
		{Table: "l1req", From: "S", On: "store", Guard: "in-tx", To: "StoM", Label: "upg", Count: 9},
		{Table: "dir", From: "M", On: "GetS", To: "S", Label: "fwd", Count: 3},
		{Table: "dir", From: "I", On: "GetS", To: "S", Label: "mem", Count: 0},
	}
	a := TransitionProfileString(profile)
	b := TransitionProfileString(profile)
	if a != b {
		t.Fatalf("two renders differ:\n%s\n---\n%s", a, b)
	}
	// Sorted-key order: tables alphabetical, rows by (From, On, Guard).
	if !strings.Contains(a, "table dir") || strings.Index(a, "table dir") > strings.Index(a, "table l1req") {
		t.Fatalf("tables not in sorted order:\n%s", a)
	}
	iLoad := strings.Index(a, "I x load")
	iStore := strings.Index(a, "I x store")
	sStore := strings.Index(a, "S x store [in-tx]")
	if iLoad < 0 || iStore < 0 || sStore < 0 || !(iLoad < iStore && iStore < sStore) {
		t.Fatalf("rows not in key order:\n%s", a)
	}
	if !strings.Contains(a, "1 never fired") {
		t.Fatalf("cold-transition summary missing:\n%s", a)
	}
}

func TestSectionsSum(t *testing.T) {
	r := NewRun("s", "w", 3)
	r.Cores[0].Sections = 5
	r.Cores[2].Sections = 7
	if r.Sections() != 12 {
		t.Fatalf("sections = %d", r.Sections())
	}
}
