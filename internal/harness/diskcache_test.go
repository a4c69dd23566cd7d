package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// TestOpenDiskCacheRefusesJSONPath pins the one refusal both CLIs share: a
// .json path (the removed single-file snapshot cache) is an error and
// creates nothing.
func TestOpenDiskCacheRefusesJSONPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "x.json")
	if _, err := OpenDiskCache(dir); err == nil || !strings.Contains(err.Error(), "single-file snapshot cache was removed") {
		t.Fatalf("OpenDiskCache(%q) = %v, want the snapshot-cache refusal", dir, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused path exists afterwards: %v", err)
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	d, err := OpenDiskCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	run := stats.NewRun("Baseline", "intruder", 2)
	run.ExecCycles, run.EventsExecuted = 12345, 99
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
	// Envelopes that match but carry a run no reader can use: a nil core
	// record (a nil-pointer panic in Sections) and a run with no cores.
	for _, run := range []string{`{"Threads":1,"Cores":[null]}`, `{"Threads":0,"Cores":[]}`, `{"Threads":2,"Cores":[{}]}`} {
		entry := `{"schema":1,"seed":1,"key":"k","run":` + run + `}`
		if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Load("k", 1); ok {
			t.Fatalf("malformed run %s was served", run)
		}
	}
}

// FuzzDiskCacheLoad: Load never panics on arbitrary file contents, and any
// run it serves has Threads >= 1 and exactly Threads non-nil core records,
// so the run renders.
func FuzzDiskCacheLoad(f *testing.F) {
	good, err := json.Marshal(diskEntry{Schema: diskCacheSchema, Seed: 1, Key: "k", Run: stats.NewRun("Baseline", "intruder", 2)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"schema":1,"seed":1,"key":"k","run":{"Threads":1,"Cores":[null]}}`))
	f.Add([]byte(`{"schema":1,"seed":1,"key":"k","run":{"Threads":0,"Cores":[]}}`))
	f.Add([]byte(`{"schema":1,"seed":1,"key":"k","run":{"Threads":1,"Cores":[{"Sink":{}}]}}`))
	f.Add([]byte("not json"))
	d, err := OpenDiskCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(d.path("k", 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		run, ok := d.Load("k", 1)
		if !ok {
			return
		}
		if run.Threads < 1 || len(run.Cores) != run.Threads {
			t.Fatalf("served a run with %d threads and %d cores", run.Threads, len(run.Cores))
		}
		for i, c := range run.Cores {
			if c == nil {
				t.Fatalf("served a run with a nil core %d", i)
			}
		}
		_ = run.String()
		run.Breakdown()
		run.Sections()
		run.Traffic.Render(io.Discard)
		stats.RenderTransitionProfile(io.Discard, run.Transitions)
	})
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
		run := stats.NewRun(s.System.Name, s.Workload.Name, s.Threads)
		run.ExecCycles = uint64(s.Threads)
		return run, nil
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

// TestRunnerReportsFailedStore: a store that fails (here the cache directory
// was replaced by a file after it was opened) loses only the cache entry, so
// the sweep still succeeds, but every failure is reported on stderr although
// the runner has no Log.
func TestRunnerReportsFailedStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = saved }()

	r := NewRunner(1)
	r.Disk = d
	r.exec = func(s Spec) (*stats.Run, error) {
		return stats.NewRun(s.System.Name, s.Workload.Name, s.Threads), nil
	}
	specs := stubSpecs(2)
	if err := r.RunAll(specs); err != nil {
		t.Fatalf("a failed store failed the sweep: %v", err)
	}
	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if want := s.keyWithSeed(r.Seed) + " not cached"; !bytes.Contains(out, []byte(want)) {
			t.Errorf("stderr does not report %q:\n%s", want, out)
		}
	}
	if !bytes.Contains(out, []byte("not a directory")) {
		t.Errorf("stderr does not carry the store error:\n%s", out)
	}
}
