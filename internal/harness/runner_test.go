package harness

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// TestGetSingleflight launches many concurrent Gets for the same spec and
// checks exactly one execution happens; the rest share its result.
func TestGetSingleflight(t *testing.T) {
	var executions atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	r := NewRunner(1)
	r.exec = func(Spec) (*stats.Run, error) {
		executions.Add(1)
		close(started)
		<-release // hold the first caller inside Execute so the rest pile up
		return &stats.Run{}, nil
	}
	spec := Spec{System: mustSystem("Baseline"), Workload: tinyProfile(), Threads: 2, Cache: TypicalCache()}

	var wg sync.WaitGroup
	results := make([]*stats.Run, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Get(spec)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	<-started
	close(release)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("spec executed %d times, want 1", n)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent Gets returned distinct result objects")
		}
	}
}

// TestGetErrorNotMemoized checks a failed execution is retried by the next
// Get rather than cached.
func TestGetErrorNotMemoized(t *testing.T) {
	var calls int
	r := NewRunner(1)
	r.exec = func(Spec) (*stats.Run, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return &stats.Run{}, nil
	}
	spec := Spec{System: mustSystem("Baseline"), Workload: tinyProfile(), Threads: 2, Cache: TypicalCache()}
	if _, err := r.Get(spec); err == nil {
		t.Fatal("first Get should fail")
	} else if !strings.Contains(err.Error(), spec.keyWithSeed(r.Seed)) {
		t.Fatalf("error %q does not name the failing spec", err)
	}
	if _, err := r.Get(spec); err != nil {
		t.Fatalf("second Get should retry and succeed: %v", err)
	}
	if calls != 2 {
		t.Fatalf("executed %d times, want 2", calls)
	}
}

// TestRunAllAggregatesErrors checks RunAll reports every failing spec (not
// just the first) with its key, via errors.Join.
func TestRunAllAggregatesErrors(t *testing.T) {
	sentinel := errors.New("boom")
	r := NewRunner(7)
	r.Workers = 4
	r.exec = func(s Spec) (*stats.Run, error) {
		if s.Threads != 2 {
			return nil, sentinel
		}
		return &stats.Run{}, nil
	}
	var specs []Spec
	for _, th := range []int{2, 4, 8} {
		specs = append(specs, Spec{System: mustSystem("Baseline"), Workload: tinyProfile(), Threads: th, Cache: TypicalCache()})
	}
	err := r.RunAll(specs)
	if err == nil {
		t.Fatal("RunAll should fail")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("aggregate %v does not wrap the cause", err)
	}
	for _, th := range []int{4, 8} {
		s := specs[0]
		s.Threads = th
		if !strings.Contains(err.Error(), s.keyWithSeed(r.Seed)) {
			t.Fatalf("aggregate %q missing failing spec %s", err, s.keyWithSeed(r.Seed))
		}
	}
	// The successful spec must still be retrievable.
	if _, err := r.Get(specs[0]); err != nil {
		t.Fatalf("successful spec lost: %v", err)
	}
}

// TestRunAllIsolatesBadSpecs: a spec whose machine cannot be built and a
// spec whose execution panics each fail alone under their own key, without
// taking the sweep down. Neither is memoized or disk-cached, the valid
// spec's result stays retrievable, and all three get ledger records.
func TestRunAllIsolatesBadSpecs(t *testing.T) {
	r := NewRunner(1)
	r.Workers = 2
	r.Ledger = &obs.Ledger{}
	disk, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r.Disk = disk
	var execs atomic.Int64
	r.exec = func(s Spec) (*stats.Run, error) {
		execs.Add(1)
		if s.Threads == 4 {
			panic("exec exploded")
		}
		return &stats.Run{Threads: s.Threads, ExecCycles: 1}, nil
	}
	good := Spec{System: mustSystem("Baseline"), Workload: tinyProfile(), Threads: 2, Cache: TypicalCache()}
	unbuildable := good
	unbuildable.Cores = 48 // the 8 MiB LLC does not split across 48 banks
	panicky := good
	panicky.Threads = 4

	err = r.RunAll([]Spec{good, unbuildable, panicky})
	if err == nil {
		t.Fatal("RunAll hid both failures")
	}
	for _, want := range []string{
		unbuildable.keyWithSeed(r.Seed), "does not split evenly",
		panicky.keyWithSeed(r.Seed), "panic: exec exploded",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), good.keyWithSeed(r.Seed)+":") {
		t.Errorf("joined error %q names the valid spec", err)
	}
	var buf bytes.Buffer
	if _, err := r.Ledger.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateLedger(bytes.NewReader(buf.Bytes())); err != nil || n != 3 {
		t.Fatalf("ledger validation: n=%d err=%v\n%s", n, err, buf.Bytes())
	}
	if got := bytes.Count(buf.Bytes(), []byte(`"error":`)); got != 2 {
		t.Errorf("ledger has %d error records, want 2\n%s", got, buf.Bytes())
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("exec ran %d times, want 2 (the unbuildable spec must not execute)", n)
	}
	if _, err := r.Get(good); err != nil || execs.Load() != 2 {
		t.Fatalf("valid result not memoized: err=%v, %d execs", err, execs.Load())
	}
	if _, err := r.Get(panicky); err == nil || execs.Load() != 3 {
		t.Fatalf("panicked spec was memoized: err=%v, %d execs", err, execs.Load())
	}
	ents, err := os.ReadDir(disk.Dir())
	if err != nil || len(ents) != 1 {
		t.Fatalf("disk cache holds %d entries (%v), want only the valid spec's", len(ents), err)
	}
}

// keyWithSeed is the key RunAll/Get stamp into error messages (the runner
// overrides the spec's seed with its own).
func (s Spec) keyWithSeed(seed uint64) string {
	s.Seed = seed
	return s.key()
}
