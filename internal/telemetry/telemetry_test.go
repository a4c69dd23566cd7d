package telemetry

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// --- event intake --------------------------------------------------------

// conflict sends one conflict outcome: winner defeated loser on line.
func conflict(tel *Telemetry, winner, loser int, line mem.Line, read, write, aborted bool) {
	tel.Event(trace.Event{Kind: trace.KindConflict, Core: loser, Peer: winner, Line: line,
		Read: read, Write: write, Aborted: aborted})
}

// segment sends one closed cycle segment of core.
func segment(tel *Telemetry, core int, cat stats.Category, start, end uint64) {
	tel.Event(trace.Event{Kind: trace.KindSegment, Core: core, Seg: uint8(cat), Start: start, End: end})
}

// TestEnabledCountingHooksZeroAlloc: with telemetry on but Chrome recording
// off, the counting hooks themselves stay allocation-free in steady state
// (histogram observes and counter bumps only).
func TestEnabledCountingHooksZeroAlloc(t *testing.T) {
	tel := New(Config{})
	engine := sim.NewEngine()
	tel.Start(engine, 4)
	// Warm up so any lazy map cells exist before measuring.
	conflict(tel, 1, 0, 7, true, false, true)
	if n := testing.AllocsPerRun(1000, func() {
		segment(tel, 0, stats.CatHTM, 0, 100)
		tel.Event(trace.Event{Kind: trace.KindXBegin, Core: 0, Section: 1, Attempt: 2})
		tel.Event(trace.Event{Kind: trace.KindAttemptCommit, Core: 0, Section: 1, Attempt: 2, Start: 50})
		conflict(tel, 1, 0, 7, true, false, true)
	}); n != 0 {
		t.Fatalf("enabled counting hooks allocate %v per run, want 0", n)
	}
}

// --- registry ------------------------------------------------------------

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
	conflict(tel, 1, 0, 100, true, false, true)
	conflict(tel, 1, 0, 100, false, true, true)
	conflict(tel, 2, 3, 100, true, false, false) // rejected, not aborted
	conflict(tel, 3, 2, 200, false, true, true)
	conflict(tel, -1, 0, 300, true, false, false) // no nameable winner

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

// TestAbortMatrixNumericOrderAt128Cores: core keys are padded to the width
// of the largest core id, so beyond 99 cores the matrix keys and the
// rendered rows still sort numerically (c011 before c100, not after).
func TestAbortMatrixNumericOrderAt128Cores(t *testing.T) {
	tel := New(Config{})
	tel.Start(sim.NewEngine(), 128)
	for _, w := range []int{127, 100, 11, 2} {
		for _, l := range []int{101, 11, 9, 3} {
			if w != l {
				conflict(tel, w, l, mem.Line(64*w+l), true, false, true)
			}
		}
	}
	// JSON encodes the matrix in sorted-key order.
	mat := tel.prov.abortMatrix()
	if keys := sortedIDs(t, mat); fmt.Sprint(keys) != "[2 11 100 127]" {
		t.Errorf("matrix keys sort as %v", keys)
	}
	for k, row := range mat {
		if cols := sortedIDs(t, row); !sort.IntsAreSorted(cols) {
			t.Errorf("matrix row %s: keys sort as %v", k, cols)
		}
	}
	var sb strings.Builder
	tel.RenderProvenance(&sb, 4)
	_, rows, _ := strings.Cut(sb.String(), "abort attribution (aborter -> abortee=count):\n")
	var ids []int
	for _, row := range strings.Split(strings.TrimSpace(rows), "\n") {
		key, cols, _ := strings.Cut(strings.TrimSpace(row), ":")
		var cells []int
		for _, col := range strings.Fields(cols) {
			cells = append(cells, coreID(t, strings.SplitN(col, "=", 2)[0]))
		}
		if !sort.IntsAreSorted(cells) {
			t.Errorf("row %s: columns out of numeric order: %v", key, cells)
		}
		ids = append(ids, coreID(t, key))
	}
	if want := []int{2, 11, 100, 127}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("rendered rows %v, want %v:\n%s", ids, want, sb.String())
	}
}

// sortedIDs returns m's core keys, in sorted-key order, as core ids.
func sortedIDs[V any](t *testing.T, m map[string]V) []int {
	t.Helper()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ids := make([]int, len(keys))
	for i, k := range keys {
		ids[i] = coreID(t, k)
	}
	return ids
}

func coreID(t *testing.T, key string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimPrefix(key, "c"))
	if err != nil {
		t.Fatalf("bad core key %q", key)
	}
	return n
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
	tel.Event(trace.Event{Kind: trace.KindXBegin, Core: 0, Section: 0, Attempt: 1})
	segment(tel, 0, stats.CatHTM, 0, 80)
	tel.Event(trace.Event{Kind: trace.KindAttemptCommit, Core: 0, Section: 0, Attempt: 1, Start: 0})
	tel.Event(trace.Event{Kind: trace.KindXBegin, Core: 1, Section: 0, Attempt: 1})
	tel.Event(trace.Event{Kind: trace.KindAttemptAbort, Core: 1, Section: 0, Attempt: 1, Start: 10, Cause: htm.CauseMC})
	segment(tel, 1, stats.CatAborted, 10, 60)
	conflict(tel, 0, 1, 512, false, true, true)
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
