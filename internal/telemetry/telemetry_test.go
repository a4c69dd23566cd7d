package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/htm"
	"repro/internal/sim"
	"repro/internal/stats"
)

// --- disabled path -------------------------------------------------------

// TestNilTelemetryIsSafe: a nil *Telemetry must absorb every hook.
func TestNilTelemetryIsSafe(t *testing.T) {
	var tel *Telemetry
	tel.Start(nil, 4)
	tel.Segment(0, stats.CatHTM, 0, 10)
	tel.TxBegin(0, 0, 1)
	tel.TxCommit(0, 0, 1, 0, false)
	tel.TxAbort(0, 0, 1, 0, htm.CauseMC)
	tel.Conflict(1, 0, 42, true, false, true)
	if tel.HotLines(4) != nil {
		t.Fatal("nil telemetry returned hot lines")
	}
	var sb strings.Builder
	tel.RenderProvenance(&sb, 4)
	if sb.Len() != 0 {
		t.Fatal("nil telemetry rendered provenance")
	}
	if err := tel.WriteMetricsJSON(&sb); err != nil || sb.Len() != 0 {
		t.Fatal("nil telemetry wrote metrics")
	}
	if err := tel.WriteMetricsCSV(&sb); err != nil || sb.Len() != 0 {
		t.Fatal("nil telemetry wrote CSV")
	}
}

// TestDisabledHooksZeroAlloc proves the disabled path allocates nothing:
// with telemetry off, every hook is one nil check.
func TestDisabledHooksZeroAlloc(t *testing.T) {
	var tel *Telemetry
	if n := testing.AllocsPerRun(1000, func() {
		tel.Segment(0, stats.CatHTM, 0, 100)
		tel.TxBegin(0, 1, 2)
		tel.TxCommit(0, 1, 2, 50, false)
		tel.TxAbort(0, 1, 2, 50, htm.CauseMC)
		tel.Conflict(1, 2, 99, true, true, true)
	}); n != 0 {
		t.Fatalf("disabled hooks allocate %v per run, want 0", n)
	}
}

// TestEnabledCountingHooksZeroAlloc: with telemetry on but Chrome recording
// off, the counting hooks themselves stay allocation-free in steady state
// (histogram observes and counter bumps only).
func TestEnabledCountingHooksZeroAlloc(t *testing.T) {
	tel := New(Config{})
	engine := sim.NewEngine()
	tel.Start(engine, 4)
	// Warm up so any lazy map cells exist before measuring.
	tel.Conflict(1, 0, 7, true, false, true)
	if n := testing.AllocsPerRun(1000, func() {
		tel.Segment(0, stats.CatHTM, 0, 100)
		tel.TxBegin(0, 1, 2)
		tel.TxCommit(0, 1, 2, 50, false)
		tel.Conflict(1, 0, 7, true, false, true)
	}); n != 0 {
		t.Fatalf("enabled counting hooks allocate %v per run, want 0", n)
	}
}

// --- registry ------------------------------------------------------------

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1010 {
		t.Fatalf("hist count=%d sum=%d", h.Count(), h.Sum())
	}
	b := h.Buckets()
	// 0 -> le 0; 1 -> le 1; 2,3 -> le 3; 4 -> le 7; 1000 -> le 1023.
	want := []Bucket{{0, 1}, {1, 1}, {3, 2}, {7, 1}, {1023, 1}}
	if len(b) != len(want) {
		t.Fatalf("buckets = %+v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b[i], want[i])
		}
	}
}

func TestRegistrySampleKinds(t *testing.T) {
	r := NewRegistry()
	var total, num, den, occ float64
	gauge := 1.0
	r.GaugeSeries("g", func() float64 { return gauge })
	r.RateSeries("rate", func() float64 { return total })
	r.RatioSeries("ratio", func() float64 { return num }, func() float64 { return den })
	r.PerCycleSeries("occ", func() float64 { return occ }, 2)

	total, num, den, occ = 10, 5, 10, 40
	r.Sample(100) // elapsed 100
	gauge, total, num, den, occ = 7, 25, 5, 10, 140
	r.Sample(200) // elapsed 100; ratio den unchanged -> 0

	get := func(name string) []float64 {
		for _, s := range r.series {
			if s.name == name {
				return s.vals
			}
		}
		t.Fatalf("series %q missing", name)
		return nil
	}
	if v := get("g"); v[0] != 1 || v[1] != 7 {
		t.Fatalf("gauge samples = %v", v)
	}
	if v := get("rate"); v[0] != 10 || v[1] != 15 {
		t.Fatalf("rate samples = %v", v)
	}
	if v := get("ratio"); v[0] != 0.5 || v[1] != 0 {
		t.Fatalf("ratio samples = %v", v)
	}
	if v := get("occ"); v[0] != 0.2 || v[1] != 0.5 {
		t.Fatalf("occ samples = %v", v)
	}
	if r.Samples() != 2 {
		t.Fatalf("samples = %d", r.Samples())
	}
}

func TestRegistryFreezeAndDuplicatePanic(t *testing.T) {
	r := NewRegistry()
	r.GaugeSeries("a", func() float64 { return 0 })
	mustPanic(t, "duplicate", func() { r.GaugeSeries("a", func() float64 { return 0 }) })
	r.Sample(1)
	mustPanic(t, "post-freeze", func() { r.RateSeries("b", func() float64 { return 0 }) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s registration did not panic", what)
		}
	}()
	fn()
}

// --- sampling loop -------------------------------------------------------

// filler keeps the engine busy so the sampler has something to overlap.
type filler struct {
	engine *sim.Engine
	left   int
}

func (f *filler) OnEvent(uint8, uint64, any) {
	if f.left--; f.left > 0 {
		f.engine.AfterEvent(37, f, 0, 0, nil)
	}
}

func TestSamplerFollowsSimulatedClockAndStops(t *testing.T) {
	engine := sim.NewEngine()
	tel := New(Config{Interval: 100})
	f := &filler{engine: engine, left: 20} // busy until cycle ~740
	engine.AfterEvent(1, f, 0, 0, nil)
	tel.Start(engine, 2)
	if err := engine.Run(0); err != nil {
		t.Fatal(err)
	}
	n := tel.Reg.Samples()
	if n < 7 || n > 9 {
		t.Fatalf("samples = %d, want ~8 over ~740 busy cycles at interval 100", n)
	}
	for i, cyc := range tel.Reg.cycles {
		if want := uint64(100 * (i + 1)); cyc != want {
			t.Fatalf("sample %d at cycle %d, want %d", i, cyc, want)
		}
	}
	// The tick must not self-perpetuate past the drained simulation.
	if last := tel.Reg.cycles[n-1]; last > 840 {
		t.Fatalf("sampler kept running to cycle %d after the simulation drained", last)
	}
}

func TestStartTwicePanics(t *testing.T) {
	tel := New(Config{})
	engine := sim.NewEngine()
	tel.Start(engine, 1)
	mustPanic(t, "second Start", func() { tel.Start(engine, 1) })
}

// --- provenance ----------------------------------------------------------

func TestProvenanceHeatAndMatrix(t *testing.T) {
	tel := New(Config{HotLines: 2})
	engine := sim.NewEngine()
	tel.Start(engine, 4)
	tel.Conflict(1, 0, 100, true, false, true)
	tel.Conflict(1, 0, 100, false, true, true)
	tel.Conflict(2, 3, 100, true, false, false) // rejected, not aborted
	tel.Conflict(3, 2, 200, false, true, true)
	tel.Conflict(-1, 0, 300, true, false, false) // no nameable winner

	hot := tel.HotLines(0) // 0 -> configured bound (2)
	if len(hot) != 2 {
		t.Fatalf("hot lines = %+v", hot)
	}
	if hot[0].Line != 100 || hot[0].Conflicts != 3 || hot[0].Aborts != 2 ||
		hot[0].Reads != 2 || hot[0].Writes != 1 {
		t.Fatalf("hottest = %+v", hot[0])
	}
	if hot[1].Line != 200 {
		t.Fatalf("second = %+v", hot[1])
	}
	mat := tel.prov.abortMatrix()
	if mat["c01"]["c00"] != 2 || mat["c03"]["c02"] != 1 {
		t.Fatalf("matrix = %v", mat)
	}
	if _, ok := mat["c02"]; ok {
		t.Fatal("non-aborting rejection leaked into the matrix")
	}
	var sb strings.Builder
	tel.RenderProvenance(&sb, 4)
	out := sb.String()
	for _, frag := range []string{"line      100", "conflicts=3", "c01: c00=2"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
}

// --- exports -------------------------------------------------------------

func newRunTelemetry(t *testing.T, chrome bool) *Telemetry {
	t.Helper()
	engine := sim.NewEngine()
	tel := New(Config{Interval: 50, HotLines: 4, Chrome: chrome})
	tel.Meta = Meta{System: "LockillerTM", Threads: 2, Workload: "unit"}
	f := &filler{engine: engine, left: 10}
	engine.AfterEvent(1, f, 0, 0, nil)
	tel.Start(engine, 2)
	tel.TxBegin(0, 0, 1)
	tel.Segment(0, stats.CatHTM, 0, 80)
	tel.TxCommit(0, 0, 1, 0, false)
	tel.TxBegin(1, 0, 1)
	tel.TxAbort(1, 0, 1, 10, htm.CauseMC)
	tel.Segment(1, stats.CatAborted, 10, 60)
	tel.Conflict(0, 1, 512, false, true, true)
	if err := engine.Run(0); err != nil {
		t.Fatal(err)
	}
	return tel
}

func TestMetricsJSONSchemaAndDeterminism(t *testing.T) {
	tel := newRunTelemetry(t, false)
	var a, b bytes.Buffer
	if err := tel.WriteMetricsJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteMetricsJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same telemetry differ")
	}
	if err := ValidateMetrics(a.Bytes()); err != nil {
		t.Fatalf("metrics schema: %v\n%s", err, a.String())
	}
	out := a.String()
	for _, frag := range []string{
		`"commit_rate"`, `"abort_rate"`, `"cycles_htm_share"`,
		`"tx_duration_cycles"`, `"hot_lines"`, `"aborts_mc"`, `"workload": "unit"`,
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("metrics JSON missing %s", frag)
		}
	}
}

func TestMetricsCSVSortedHeader(t *testing.T) {
	tel := newRunTelemetry(t, false)
	var buf bytes.Buffer
	if err := tel.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+tel.Reg.Samples() {
		t.Fatalf("csv has %d lines for %d samples", len(lines), tel.Reg.Samples())
	}
	cols := strings.Split(lines[0], ",")
	if cols[0] != "cycle" {
		t.Fatalf("first column = %q", cols[0])
	}
	for i := 2; i < len(cols); i++ {
		if cols[i] <= cols[i-1] {
			t.Fatalf("header not sorted at %q <= %q", cols[i], cols[i-1])
		}
	}
}

func TestChromeTraceSchema(t *testing.T) {
	tel := newRunTelemetry(t, true)
	var buf bytes.Buffer
	if err := tel.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("chrome schema: %v\n%s", err, buf.String())
	}
	if err := ValidateSortedKeys(buf.Bytes()); err != nil {
		t.Fatalf("chrome keys: %v", err)
	}
	out := buf.String()
	for _, frag := range []string{
		`"process_name"`, `"thread_name"`, `"xbegin"`, `"commit"`,
		`"abort:mc"`, `"ph":"X"`, `"ph":"s"`, `"ph":"f"`,
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("chrome trace missing %s:\n%s", frag, out)
		}
	}
}

func TestChromeDisabledStillValid(t *testing.T) {
	tel := newRunTelemetry(t, false)
	var buf bytes.Buffer
	if err := tel.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// --- validators ----------------------------------------------------------

func TestValidateSortedKeysRejectsDisorder(t *testing.T) {
	good := []byte(`{"a":1,"b":{"x":[{"m":1,"n":2}],"y":2},"c":"b"}`)
	if err := ValidateSortedKeys(good); err != nil {
		t.Fatalf("good doc rejected: %v", err)
	}
	bad := []byte(`{"b":1,"a":2}`)
	if err := ValidateSortedKeys(bad); err == nil {
		t.Fatal("unsorted top-level keys accepted")
	}
	nested := []byte(`{"a":{"z":1,"y":2}}`)
	if err := ValidateSortedKeys(nested); err == nil {
		t.Fatal("unsorted nested keys accepted")
	}
	// Values that are strings must not be mistaken for keys.
	values := []byte(`{"a":"zzz","b":"aaa"}`)
	if err := ValidateSortedKeys(values); err != nil {
		t.Fatalf("string values confused for keys: %v", err)
	}
}

func TestValidateChromeTraceRejectsBadDocs(t *testing.T) {
	cases := map[string]string{
		"missing traceEvents": `{}`,
		"unknown phase":       `{"traceEvents":[{"name":"x","ph":"Z","ts":1}]}`,
		"no name":             `{"traceEvents":[{"ph":"i","ts":1}]}`,
		"X without dur":       `{"traceEvents":[{"name":"x","ph":"X","ts":1}]}`,
	}
	for what, doc := range cases {
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestValidateMetricsRejectsBadDocs(t *testing.T) {
	base := `{"cycles":[100,200],"interval":100,"series":{"abort_rate":[0,0],"commit_rate":[1,1]}}`
	if err := ValidateMetrics([]byte(base)); err != nil {
		t.Fatalf("good doc rejected: %v", err)
	}
	cases := map[string]string{
		"non-increasing cycles": `{"cycles":[200,100],"interval":100,"series":{"abort_rate":[0,0],"commit_rate":[1,1]}}`,
		"missing commit_rate":   `{"cycles":[100],"interval":100,"series":{"abort_rate":[0]}}`,
		"ragged series":         `{"cycles":[100,200],"interval":100,"series":{"abort_rate":[0],"commit_rate":[1,1]}}`,
		"missing sections":      `{"cycles":[100]}`,
	}
	for what, doc := range cases {
		if err := ValidateMetrics([]byte(doc)); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}
