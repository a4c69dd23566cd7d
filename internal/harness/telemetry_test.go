package harness

import (
	"bytes"
	"testing"

	"repro/internal/stamp"
	"repro/internal/telemetry"
)

// TestTelemetryExportsByteIdentical runs the same seed twice with telemetry
// and asserts both exports are byte-identical, schema-valid, and sorted-key.
func TestTelemetryExportsByteIdentical(t *testing.T) {
	export := func() (metrics, chrome []byte) {
		t.Helper()
		tel := telemetry.New(telemetry.Config{Interval: 10_000, HotLines: 8, Chrome: true})
		_, err := ExecuteWith(Spec{
			System: mustSystem("LockillerTM"), Workload: stamp.Intruder(),
			Threads: 4, Cache: TypicalCache(), Seed: 1,
		}, ExecOptions{Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		var m, c bytes.Buffer
		if err := tel.WriteMetricsJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := tel.WriteChromeTrace(&c); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), c.Bytes()
	}
	m1, c1 := export()
	m2, c2 := export()
	if !bytes.Equal(m1, m2) {
		t.Error("metrics JSON differs across two same-seed runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("chrome trace differs across two same-seed runs")
	}
	if err := telemetry.ValidateMetrics(m1); err != nil {
		t.Errorf("metrics schema: %v", err)
	}
	if err := telemetry.ValidateChromeTrace(c1); err != nil {
		t.Errorf("chrome schema: %v", err)
	}
	if err := telemetry.ValidateSortedKeys(c1); err != nil {
		t.Errorf("chrome keys: %v", err)
	}
	// A contended intruder run must surface conflict provenance.
	if len(m1) == 0 || !bytes.Contains(m1, []byte(`"hot_lines"`)) {
		t.Error("metrics JSON missing provenance section")
	}
}

func mustWorkload(name string) stamp.Profile {
	wl, err := stamp.ByName(name)
	if err != nil {
		panic(err)
	}
	return wl
}
