package harness

import (
	"bytes"
	"hash/fnv"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestObserverOutputDigests pins what the observers record, across commits:
// the rendered text trace, the metrics JSON and the Chrome trace of two
// fully observed seed-1 runs must hash to the FNV-64a digests recorded when
// the test was added. The golden rows only compare a run with another run
// of the same tree; this test is what catches a changed trace line, a
// reordered event or a missing span. The two cells cover every text-trace
// kind: Baseline spins on the fallback lock and acquires and releases it,
// and LockillerTM on the small cache spills to the signatures, is rejected
// at the LLC, is granted and denied switchingMode, ends HTMLock sections
// and aborts with the of and fault causes.
//
// A deliberate change to an output updates the constants in the same
// change, with the reason in its description.
func TestObserverOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("two fully traced runs; skipped under -short")
	}
	cells := []struct {
		system, workload string
		cache            CacheConfig
		events           uint64
		text, metrics    uint64
		chrome           uint64
	}{
		{"Baseline", "intruder", TypicalCache(), 349_924,
			0xdba8b74a974afb5d, 0x3e4cc7ac8ee95658, 0xc35316c5c767f6e3},
		{"LockillerTM", "yada", SmallCache(), 438_018,
			0x7038991b0b0fe97b, 0x54ea30af6739c1b2, 0x91b281ba20d9989d},
	}
	for _, c := range cells {
		s := Spec{System: mustSystem(c.system), Workload: mustWorkload(c.workload),
			Threads: 4, Cache: c.cache, Seed: 1}
		// The ring holds every event of either run, so the rendered text is
		// the whole trace rather than its tail.
		tr := trace.New(1<<20, nil)
		tel := telemetry.New(telemetry.Config{Chrome: true})
		if _, err := ExecuteWith(s, ExecOptions{Tracer: tr, Telemetry: tel}); err != nil {
			t.Fatal(err)
		}
		var text, metrics, chrome bytes.Buffer
		tr.Render(&text)
		if err := tel.WriteMetricsJSON(&metrics); err != nil {
			t.Fatal(err)
		}
		if err := tel.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		if tr.Total() != c.events {
			t.Errorf("%s: traced %d events, want %d", pointName(s), tr.Total(), c.events)
		}
		got := [3]uint64{fnv64(text.Bytes()), fnv64(metrics.Bytes()), fnv64(chrome.Bytes())}
		want := [3]uint64{c.text, c.metrics, c.chrome}
		for i, name := range []string{"text trace", "metrics JSON", "Chrome trace"} {
			if got[i] != want[i] {
				t.Errorf("%s: %s digest = %#x, want %#x", pointName(s), name, got[i], want[i])
			}
		}
	}
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
