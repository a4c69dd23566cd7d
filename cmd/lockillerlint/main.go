// Command lockillerlint is the multichecker for the repository's custom
// static-analysis suite. It loads the named packages from source (stdlib-only
// module, no external driver needed) and runs the eight lockiller passes:
//
//	detmap        — order-dependent side effects in map-range loops of
//	                deterministic packages
//	nowallclock   — wall-clock, global rand, env reads, goroutines, channels
//	                in deterministic packages
//	hostclock     — wall-clock reads outside internal/obs anywhere in the
//	                repo
//	poolsafe      — use-after-free / double-free of pooled protocol objects
//	evtalloc      — closure-literal Engine.At/After scheduling on hot paths
//	tabledispatch — raw switches over MsgType in the coherence package that
//	                bypass the protocol transition tables
//	tracehook     — unguarded Tracer.Emit/Emitf or Telemetry hook calls on
//	                hot paths that pay argument evaluation when disabled, and
//	                unguarded obs.EngineProbe callsites outside internal/obs
//	fusepath      — evL1Done scheduled outside L1.finishHit, breaking the
//	                event-fusion fast path's single-completion-site invariant
//
// poolsafe's transitive sink summaries run over a shared whole-load call
// graph (internal/analysis/callgraph.go).
//
// Usage:
//
//	lockillerlint [-analyzers a,b] [-json] [-unused-waivers] [packages]
//
// Packages default to ./... resolved against the enclosing module. Exit
// status is 1 when any diagnostic is reported, 2 on load errors, matching
// go vet. See DESIGN.md "Determinism & pooling rules" for the invariants and
// the //lockiller: waiver syntax.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detmap"
	"repro/internal/analysis/evtalloc"
	"repro/internal/analysis/fusepath"
	"repro/internal/analysis/hostclock"
	"repro/internal/analysis/nowallclock"
	"repro/internal/analysis/poolsafe"
	"repro/internal/analysis/tabledispatch"
	"repro/internal/analysis/tracehook"
)

var all = []*analysis.Analyzer{
	detmap.Analyzer,
	evtalloc.Analyzer,
	fusepath.Analyzer,
	hostclock.Analyzer,
	nowallclock.Analyzer,
	poolsafe.Analyzer,
	tabledispatch.Analyzer,
	tracehook.Analyzer,
}

// jsonDiagnostic is the machine-readable diagnostic shape emitted by -json:
// module-relative file path plus 1-based line/column, sorted the same way as
// the plain-text output.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as a sorted JSON array on stdout")
	unusedWaivers := flag.Bool("unused-waivers", false, "also report //lockiller: suppression comments that matched no diagnostic (advisory: does not affect exit status)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lockillerlint [-analyzers a,b] [-list] [-json] [-unused-waivers] [packages]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *names != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, n := range strings.Split(*names, ",") {
			a, ok := byName[strings.TrimSpace(n)]
			if !ok {
				fmt.Fprintf(os.Stderr, "lockillerlint: unknown analyzer %q\n", n)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadAll(patterns)
	if err != nil {
		fatal(err)
	}
	prog, diags, err := analysis.RunAnalyzersProgram(pkgs, analyzers)

	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     prog.RelPath(d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if err != nil {
		fatal(err)
	}

	if *unusedWaivers {
		for _, w := range prog.UnusedWaivers() {
			fmt.Fprintf(os.Stderr, "lockillerlint: unused waiver //%s at %s:%d\n",
				w.Directive, prog.RelPath(w.Pos.Filename), w.Pos.Line)
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lockillerlint: %d issue(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lockillerlint:", err)
	os.Exit(2)
}
