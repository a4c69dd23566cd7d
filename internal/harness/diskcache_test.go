package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

func TestDiskCacheRoundTrip(t *testing.T) {
	d, err := OpenDiskCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	run := &stats.Run{System: "Baseline", Workload: "intruder", ExecCycles: 12345, EventsExecuted: 99}
	if err := d.Store("k1", 7, run); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Load("k1", 7)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got.ExecCycles != run.ExecCycles || got.EventsExecuted != run.EventsExecuted {
		t.Fatalf("loaded %+v, want %+v", got, run)
	}
	// Every identity component is part of the address: a different seed or
	// key must miss.
	if _, ok := d.Load("k1", 8); ok {
		t.Fatal("wrong seed hit")
	}
	if _, ok := d.Load("k2", 7); ok {
		t.Fatal("wrong key hit")
	}
}

func TestDiskCacheRejectsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store("k", 1, &stats.Run{ExecCycles: 1}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("cache dir: %v, %d entries", err, len(ents))
	}
	path := filepath.Join(dir, ents[0].Name())
	if err := os.WriteFile(path, []byte(`{"schema":1,"seed":1,"key":"other","run":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Load("k", 1); ok {
		t.Fatal("entry whose envelope contradicts its address was served")
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Load("k", 1); ok {
		t.Fatal("undecodable entry was served")
	}
}

// TestRunnerDiskCache wires a DiskCache into two runners in sequence: the
// first executes and stores, the second must satisfy the whole sweep from
// disk (zero executions) and write cache_src="disk" ledger records that
// still validate.
func TestRunnerDiskCache(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := stubSpecs(4)

	r1 := NewRunner(1)
	r1.Workers = 2
	r1.Disk = d
	var execs atomic.Int64 // bumped from both sweep workers
	r1.exec = func(s Spec) (*stats.Run, error) {
		execs.Add(1)
		return &stats.Run{ExecCycles: uint64(s.Threads)}, nil
	}
	if err := r1.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != int64(len(specs)) {
		t.Fatalf("first sweep executed %d specs, want %d", n, len(specs))
	}

	r2 := NewRunner(1)
	r2.Workers = 2
	r2.Disk = d
	r2.Ledger = &obs.Ledger{}
	r2.exec = func(s Spec) (*stats.Run, error) {
		t.Errorf("disk-cached spec %s re-executed", s.Key())
		return &stats.Run{}, nil
	}
	if err := r2.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		run, err := r2.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		if run.ExecCycles != uint64(s.Threads) {
			t.Fatalf("disk hit for %s returned ExecCycles %d, want %d", s.Key(), run.ExecCycles, s.Threads)
		}
	}
	var buf bytes.Buffer
	if _, err := r2.Ledger.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateLedger(bytes.NewReader(buf.Bytes())); err != nil || n != len(specs) {
		t.Fatalf("ledger validation: n=%d err=%v\n%s", n, err, buf.String())
	}
	if got := bytes.Count(buf.Bytes(), []byte(`"cache_src":"disk"`)); got != len(specs) {
		t.Errorf("ledger has %d cache_src=disk records, want %d\n%s", got, len(specs), buf.String())
	}
}
