package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/detmap"
	"repro/internal/analysis/evtalloc"
	"repro/internal/analysis/nowallclock"
	"repro/internal/analysis/poolsafe"
)

var suite = []*analysis.Analyzer{
	detmap.Analyzer, evtalloc.Analyzer, nowallclock.Analyzer, poolsafe.Analyzer,
}

// TestLoadRealPackages loads a real module package through the source
// loader and runs the full suite over it; the committed tree must be clean.
func TestLoadRealPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("source type-checking is slow; skipped under -short")
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll([]string{"repro/internal/sim", "repro/internal/htm"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	diags, err := analysis.RunAnalyzers(pkgs, suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("committed tree must be lint-clean, got: %s", d)
	}
}

// TestSeededViolationFails rebuilds a miniature module with a time.Now call
// in a package named sim and asserts the suite rejects it — the property CI
// relies on: re-introducing a violation makes make lint fail.
func TestSeededViolationFails(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module seeded\n\ngo 1.22\n")
	write("internal/sim/engine.go", `package sim

import "time"

// Now leaks the wall clock into simulated time.
func Now() int64 { return time.Now().UnixNano() }
`)
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "time.Now") || diags[0].Analyzer != "nowallclock" {
		t.Fatalf("unexpected diagnostic: %s", diags[0])
	}
}

// TestExpandPatterns checks ./... enumeration skips testdata and includes
// the analysis packages themselves.
func TestExpandPatterns(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"repro/internal/sim":      false,
		"repro/internal/analysis": false,
		"repro/cmd/lockillerlint": false,
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("Expand included a testdata package: %s", p)
		}
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("Expand missed %s (got %d packages)", p, len(paths))
		}
	}
}
