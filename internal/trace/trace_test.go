package trace

import (
	"strings"
	"testing"
)

func TestRingBufferKeepsLatest(t *testing.T) {
	tr := New(4, nil)
	now := uint64(0)
	tr.Now = func() uint64 { now++; return now }
	for i := 0; i < 10; i++ {
		tr.Event(Event{Kind: KindBackInv, Core: i, Line: 7})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	if evs[0].Core != 6 || evs[3].Core != 9 {
		t.Fatalf("wrong window: %+v", evs)
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
	// Chronological order.
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatal("events out of order")
		}
	}
}

func TestCategoryFiltering(t *testing.T) {
	cats, err := ParseCategories("tx,conflict")
	if err != nil {
		t.Fatal(err)
	}
	tr := New(16, cats)
	tr.Event(Event{Kind: KindBackInv})     // proto: dropped
	tr.Event(Event{Kind: KindCommit})      // tx: kept
	tr.Event(Event{Kind: KindRejected})    // conflict: kept
	tr.Event(Event{Kind: KindSwitchGrant}) // htmlock: dropped
	if tr.Total() != 2 {
		t.Fatalf("total = %d, want 2", tr.Total())
	}
	if evs := tr.Events(); evs[0].Kind != KindCommit || evs[1].Kind != KindRejected {
		t.Fatalf("kept %+v", evs)
	}
}

// TestTracerSkipsKindsWithoutText: segments, conflicts and attempt outcomes
// feed telemetry only; a tracer of every category keeps none of them.
func TestTracerSkipsKindsWithoutText(t *testing.T) {
	tr := New(16, nil)
	for _, k := range []Kind{KindSegment, KindConflict, KindAttemptCommit, KindAttemptAbort} {
		tr.Event(Event{Kind: k, Core: 1, Line: 9, End: 10})
	}
	if tr.Total() != 0 || len(tr.Events()) != 0 {
		t.Fatalf("recorded %d events without a text line", tr.Total())
	}
	for k := Kind(0); k < numKinds; k++ {
		if text := (Event{Kind: k}).text(); (text != "") != (kindCat[k] != noText) {
			t.Errorf("kind %d: text %q does not match its category %v", k, text, kindCat[k])
		}
	}
}

type recorder struct {
	name string
	log  *[]string
}

func (r recorder) Event(e Event) { *r.log = append(*r.log, r.name+":"+e.text()) }

func TestTeeDeliversInOrder(t *testing.T) {
	var log []string
	tee := Tee{recorder{"a", &log}, recorder{"b", &log}}
	tee.Event(Event{Kind: KindSwitchGrant})
	tee.Event(Event{Kind: KindSwitchDeny})
	want := []string{
		"a:switchingMode granted: now STL", "b:switchingMode granted: now STL",
		"a:switchingMode denied", "b:switchingMode denied",
	}
	if strings.Join(log, "|") != strings.Join(want, "|") {
		t.Fatalf("delivered %q, want %q", log, want)
	}
}

func TestParseCategoriesErrors(t *testing.T) {
	if _, err := ParseCategories("nope"); err == nil {
		t.Fatal("unknown category must error")
	}
	for _, s := range []string{"", "all"} {
		all, err := ParseCategories(s)
		if err != nil || len(all) != int(numCategories) {
			t.Fatalf("%q should enable all: %v %v", s, all, err)
		}
		if !all[CatNoC] {
			t.Fatalf("%q should include noc", s)
		}
	}
}

// TestParseCategoriesAll: "all" anywhere in the list selects every
// category, and an unknown name beside it is still an error.
func TestParseCategoriesAll(t *testing.T) {
	for _, tc := range []struct {
		list string
		ok   bool
	}{
		{"all", true},
		{"tx,all", true},
		{"all, noc", true},
		{"all,bogus", false},
		{"bogus,all", false},
	} {
		cats, err := ParseCategories(tc.list)
		if !tc.ok {
			if err == nil {
				t.Errorf("%q: want an error, got %v", tc.list, cats)
			}
			continue
		}
		if err != nil || len(cats) != int(numCategories) {
			t.Errorf("%q should enable all %d categories: %v %v", tc.list, numCategories, cats, err)
		}
	}
}

// TestNewRejectsNoRetention: a tracer that retains nothing is a caller
// error, not a request for a default size.
func TestNewRejectsNoRetention(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n, nil)
		}()
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 42, Core: 3, Kind: KindRejectFwd, Line: 100, Msg: "FwdGetM", Peer: 5, Prio: 9, PeerPrio: 4}
	s := e.String()
	for _, frag := range []string{"42", "c03", "[conflict]", "line=100", "reject FwdGetM from c5 (own prio 9 vs 4)"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("%q missing %q", s, frag)
		}
	}
	// Line 0 omits the line field.
	e2 := Event{Cycle: 1, Core: 0, Kind: KindXBegin, Section: 2, Attempt: 1}
	if s := e2.String(); strings.Contains(s, "line=") || !strings.HasSuffix(s, "[tx] xbegin section=2 attempt=1") {
		t.Fatalf("%q: line=0 should be omitted", s)
	}
}

func TestRender(t *testing.T) {
	tr := New(8, nil)
	tr.Event(Event{Kind: KindCommit, Core: 1, Attempt: 2})
	var sb strings.Builder
	tr.Render(&sb)
	if !strings.Contains(sb.String(), "commit attempt=2") || !strings.Contains(sb.String(), "1 events") {
		t.Fatalf("render: %s", sb.String())
	}
}
