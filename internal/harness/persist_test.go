package harness

import (
	"bytes"
	"testing"

	"repro/internal/stamp"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	r := NewRunner(7)
	// A registry workload, not tinyProfile: Load validates every stored
	// key via ParseKey, which resolves workloads through stamp.ByName.
	spec := Spec{System: mustSystem("Baseline"), Workload: stamp.Kmeans(), Threads: 2, Cache: TypicalCache()}
	orig, err := r.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(7)
	rep, err := r2.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 1 || rep.Rejected != 0 {
		t.Fatalf("LoadReport = %+v, want 1 loaded, 0 rejected", rep)
	}
	if r2.Cached() != r.Cached() {
		t.Fatalf("cached %d vs %d", r2.Cached(), r.Cached())
	}
	got, err := r2.Get(spec) // must hit the cache, not re-simulate
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecCycles != orig.ExecCycles {
		t.Fatalf("cycles %d vs %d", got.ExecCycles, orig.ExecCycles)
	}
	if got.CommitRate() != orig.CommitRate() {
		t.Fatal("derived stats diverged after reload")
	}
	bd1, bd2 := orig.Breakdown(), got.Breakdown()
	if bd1 != bd2 {
		t.Fatalf("breakdowns diverged: %v vs %v", bd1, bd2)
	}
}

func TestLoadRejectsWrongSeed(t *testing.T) {
	r := NewRunner(7)
	if _, err := r.Get(Spec{System: mustSystem("CGL"), Workload: tinyProfile(), Threads: 2, Cache: TypicalCache()}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(8)
	if _, err := r2.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("wrong seed must be rejected")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	r := NewRunner(1)
	if _, err := r.Load(bytes.NewReader([]byte("{"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := r.Load(bytes.NewReader([]byte(`{"version":9}`))); err == nil {
		t.Fatal("wrong version must be rejected")
	}
}

// TestLoadRejectsBadKeys pins the per-record validation: records whose keys
// fail ParseKey (unknown system/workload, malformed or out-of-order
// suffixes, legacy sharded-engine |parN keys) are counted rejected, never
// merged, while well-formed siblings in the same file still load.
func TestLoadRejectsBadKeys(t *testing.T) {
	r := NewRunner(1)
	goodKey := Spec{System: mustSystem("CGL"), Workload: stamp.Intruder(),
		Threads: 2, Cache: TypicalCache(), Seed: 1}.Key()
	blob := `{"version":1,"seed":1,"results":{` +
		`"` + goodKey + `":{},` +
		`"NoSuchSystem|intruder|2|typical|1":{},` +
		`"CGL|tiny|2|typical|1":{},` +
		`"CGL|intruder|2|typical|1|cores64|nofuse":{},` +
		`"CGL|intruder|2|typical|1|par2":{},` +
		`"CGL|intruder|0|typical|1":{}}}`
	rep, err := r.Load(bytes.NewReader([]byte(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 1 || rep.Rejected != 5 {
		t.Fatalf("LoadReport = %+v, want 1 loaded, 5 rejected", rep)
	}
	if r.Cached() != 1 {
		t.Fatalf("Cached = %d, want 1", r.Cached())
	}
}
