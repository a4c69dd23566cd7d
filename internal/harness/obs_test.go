package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// recSink records progress events. The runner serializes Event calls, so no
// lock is needed.
type recSink struct {
	evs []obs.ProgressEvent
}

func (s *recSink) Event(e obs.ProgressEvent) { s.evs = append(s.evs, e) }

// stubSpecs builds n distinct specs that a stubbed exec can satisfy.
func stubSpecs(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{
			System: mustSystem("Baseline"), Workload: mustWorkload("intruder"),
			Threads: i + 1, Cache: TypicalCache(),
		}
	}
	return specs
}

// TestRunAllProgressAccounting checks the sweep bookkeeping under both a
// serial and a parallel worker pool: every spec produces exactly one event,
// done-counts are an exact 1..N sequence, totals include cached specs, and
// a re-run reports everything as cache hits.
func TestRunAllProgressAccounting(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := NewRunner(1)
			r.Workers = workers
			r.exec = func(s Spec) (*stats.Run, error) {
				return &stats.Run{ExecCycles: uint64(s.Threads)}, nil
			}
			sink := &recSink{}
			r.Progress = sink
			specs := stubSpecs(6)

			if err := r.RunAll(specs); err != nil {
				t.Fatal(err)
			}
			checkEvents := func(evs []obs.ProgressEvent, wantCached bool) {
				t.Helper()
				if len(evs) != len(specs) {
					t.Fatalf("got %d progress events, want %d", len(evs), len(specs))
				}
				keys := make(map[string]bool)
				for i, e := range evs {
					if e.Done != i+1 {
						t.Errorf("event %d: Done = %d, want %d (monotone)", i, e.Done, i+1)
					}
					if e.Total != len(specs) {
						t.Errorf("event %d: Total = %d, want %d", i, e.Total, len(specs))
					}
					if e.Key == "" || keys[e.Key] {
						t.Errorf("event %d: key %q empty or duplicated", i, e.Key)
					}
					keys[e.Key] = true
					if e.Err != "" {
						t.Errorf("event %d: unexpected error %q", i, e.Err)
					}
					if e.CacheHit != wantCached {
						t.Errorf("event %d: CacheHit = %v, want %v", i, e.CacheHit, wantCached)
					}
				}
			}
			checkEvents(sink.evs, false)

			// The same sweep again: everything is memoized now, and the
			// totals must still cover the whole matrix.
			sink.evs = nil
			if err := r.RunAll(specs); err != nil {
				t.Fatal(err)
			}
			checkEvents(sink.evs, true)
		})
	}
}

// TestRunAllErrorPathLedger checks that failing specs still produce ledger
// records (with the error field set) and progress events, and that the
// errors.Join aggregate is returned as before.
func TestRunAllErrorPathLedger(t *testing.T) {
	r := NewRunner(1)
	r.Workers = 4
	r.Ledger = &obs.Ledger{}
	r.exec = func(s Spec) (*stats.Run, error) {
		if s.Threads%2 == 0 {
			return nil, errors.New("boom")
		}
		return &stats.Run{ExecCycles: uint64(s.Threads)}, nil
	}
	sink := &recSink{}
	r.Progress = sink
	specs := stubSpecs(6)

	err := r.RunAll(specs)
	if err == nil {
		t.Fatal("RunAll did not surface the failures")
	}
	if got := strings.Count(err.Error(), "boom"); got != 3 {
		t.Errorf("joined error mentions %d failures, want 3: %v", got, err)
	}
	if r.Ledger.Len() != len(specs) {
		t.Fatalf("ledger has %d records, want %d (failures must be recorded too)", r.Ledger.Len(), len(specs))
	}
	var buf bytes.Buffer
	if _, err := r.Ledger.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if n, err := obs.ValidateLedger(bytes.NewReader(data)); err != nil || n != len(specs) {
		t.Fatalf("ledger validation: n=%d err=%v", n, err)
	}
	if got := bytes.Count(data, []byte(`"error":`)); got != 3 {
		t.Errorf("ledger has %d error records, want 3\n%s", got, data)
	}
	failedEvents := 0
	for _, e := range sink.evs {
		if e.Err != "" {
			failedEvents++
		}
	}
	if failedEvents != 3 {
		t.Errorf("progress stream has %d failed events, want 3", failedEvents)
	}
}

// TestRunAllCacheHitLedger checks that a resumed sweep writes cache-hit
// records for memoized specs, so the ledger covers the whole matrix.
func TestRunAllCacheHitLedger(t *testing.T) {
	r := NewRunner(1)
	r.Workers = 2
	r.exec = func(s Spec) (*stats.Run, error) {
		return &stats.Run{ExecCycles: uint64(s.Threads)}, nil
	}
	specs := stubSpecs(4)
	if err := r.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	// Attach the ledger only for the resumed sweep: all four records must
	// be cache hits.
	r.Ledger = &obs.Ledger{}
	if err := r.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	if r.Ledger.Len() != len(specs) {
		t.Fatalf("resumed sweep ledger has %d records, want %d", r.Ledger.Len(), len(specs))
	}
	var buf bytes.Buffer
	if _, err := r.Ledger.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte(`"cache_hit":true`)); got != len(specs) {
		t.Errorf("ledger has %d cache-hit records, want %d\n%s", got, len(specs), buf.String())
	}
}

// TestRedactedLedgerByteIdentical runs the same sweep on two fresh runners
// and asserts their redacted ledgers are byte-identical: with the
// host-tagged fields zeroed, a ledger is a pure function of the spec set
// and seed.
func TestRedactedLedgerByteIdentical(t *testing.T) {
	sweep := func() []byte {
		t.Helper()
		r := NewRunner(1)
		r.Workers = 4
		r.Ledger = &obs.Ledger{Redact: true}
		r.exec = func(s Spec) (*stats.Run, error) {
			return &stats.Run{ExecCycles: uint64(s.Threads), EventsExecuted: 100}, nil
		}
		if err := r.RunAll(stubSpecs(5)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := r.Ledger.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := sweep(), sweep()
	if !bytes.Equal(a, b) {
		t.Errorf("redacted ledgers differ across two same-seed sweeps:\n%s\n---\n%s", a, b)
	}
	if bytes.Contains(a, []byte(`"wall_ns":`)) && !bytes.Contains(a, []byte(`"wall_ns":0`)) {
		t.Error("redacted ledger leaked a nonzero wall time")
	}
	if n, err := obs.ValidateLedger(bytes.NewReader(a)); err != nil || n != 5 {
		t.Fatalf("ledger validation: n=%d err=%v", n, err)
	}
}
