// Package analysis is a self-contained static-analysis framework for the
// lockillerlint suite. It mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf) but is built entirely on the standard library's
// go/parser + go/types, because this repository carries no third-party
// dependencies. Packages are loaded from source (see load.go), analyzers run
// over the typed syntax trees, and diagnostics are collected per position.
//
// The suite enforces the simulator's two load-bearing invariants:
//
//   - bit-for-bit deterministic replay: no Go map iteration order, wall-clock
//     reads, global RNG state, environment, or goroutine scheduling may leak
//     into event sequencing (detmap, nowallclock);
//   - strict ownership of pooled protocol objects: a *Msg/mshr/pending value
//     must never be read, written, or re-freed after it flowed into its
//     free/release sink (poolsafe);
//
// plus one performance invariant: hot packages schedule with the typed
// zero-alloc AtEvent/AfterEvent API rather than per-event closures (evtalloc).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check: Run inspects a single package through
// the Pass, which also exposes the whole load (Pass.Prog) for analyzers that
// need cross-package facts such as the call graph.
type Analyzer struct {
	Name string // short kebab-free identifier, e.g. "detmap"
	Doc  string // one-paragraph description of what it enforces
	Run  func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog is the whole-load view: Facts, the waiver index, and every other
	// package loaded in this run.
	Prog *Program

	diags   *[]Diagnostic
	parents map[ast.Node]ast.Node // lazily built per pass
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// --- waiver directives ---------------------------------------------------

// Waiver directives. A directive comment waives a diagnostic when it sits on
// the flagged statement's line or on the line directly above it:
//
//	//lockiller:ordered   — detmap: iteration order provably does not affect
//	                        observable state (commutative effects), or the
//	                        non-determinism is intended
//	//lockiller:alloc-ok  — evtalloc: the closure allocation is accepted
//	                        (cold path); say why in the trailing text
//	//lockiller:pool-ok   — poolsafe: the flagged flow is safe; say why
//	//lockiller:rawdispatch — tabledispatch: the switch is stateless routing,
//	                        not a protocol decision; say why and name the
//	                        test that cross-checks it against the tables
//	//lockiller:trace-ok  — tracehook: the unguarded observability call is on
//	                        a cold path; say why in the trailing text
//	//lockiller:fusepath-ok — fusepath: a deliberate new evL1Done scheduling
//	                        site; say why, and update the fusion equivalence
//	                        reasoning in DESIGN.md §10
//	//lockiller:hostclock-ok — hostclock: a wall-clock read in package main
//	                        (CLI banners and the like); say why the value
//	                        never reaches model state. Honored only in
//	                        package main — libraries route host time
//	                        through internal/obs, no exceptions
const (
	DirectiveOrdered     = "lockiller:ordered"
	DirectiveAllocOK     = "lockiller:alloc-ok"
	DirectivePoolOK      = "lockiller:pool-ok"
	DirectiveRawDispatch = "lockiller:rawdispatch"
	DirectiveTraceOK     = "lockiller:trace-ok"
	DirectiveFusePathOK  = "lockiller:fusepath-ok"
	DirectiveHostClockOK = "lockiller:hostclock-ok"
)

// Waived reports whether node n is waived by the given directive: a comment
// whose text starts with "//lockiller:<dir>" on n's starting line or the line
// immediately above it. The lookup goes through the Program's waiver index,
// which also marks the comment used for the stale-waiver audit.
func (p *Pass) Waived(n ast.Node, directive string) bool {
	return p.Prog.WaivedAt(n.Pos(), directive)
}

// FileOf returns the *ast.File of this pass containing n, or nil.
func (p *Pass) FileOf(n ast.Node) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= n.Pos() && n.Pos() < f.FileEnd {
			return f
		}
	}
	return nil
}

// EnclosingFunc returns the body of the innermost function declaration or
// literal enclosing n, or nil if n is not inside a function.
func (p *Pass) EnclosingFunc(n ast.Node) *ast.BlockStmt {
	for cur := p.ParentOf(n); cur != nil; cur = p.ParentOf(cur) {
		switch fn := cur.(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// ParentOf returns the syntactic parent of n within the pass's files. The
// parent map is built once per pass on first use.
func (p *Pass) ParentOf(n ast.Node) ast.Node {
	if p.parents == nil {
		p.parents = make(map[ast.Node]ast.Node)
		for _, f := range p.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if len(stack) > 0 {
					p.parents[n] = stack[len(stack)-1]
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	return p.parents[n]
}

// --- package classification ----------------------------------------------

// deterministicPkgs are the packages whose execution feeds event sequencing
// or result aggregation and must therefore be bit-for-bit reproducible.
// Matching is by package name (which equals the import path's last element
// throughout this repo, and lets analysistest fixtures opt in by name).
var deterministicPkgs = map[string]bool{
	"sim": true, "coherence": true, "cpu": true, "noc": true,
	"htm": true, "cache": true, "stamp": true, "stats": true,
	"telemetry": true,
}

// hotPkgs are the packages whose event scheduling sits on the simulator's
// hot path, where per-event closure allocation is a measured regression
// (see BENCH_1.json: the PR-1 pooling work cut allocs/op 11x).
var hotPkgs = map[string]bool{
	"coherence": true, "cpu": true, "noc": true, "htm": true,
}

// IsDeterministicPkg reports whether pkg must be deterministic.
func IsDeterministicPkg(pkg *types.Package) bool {
	return deterministicPkgs[pkg.Name()] || deterministicPkgs[pathTail(pkg.Path())]
}

// IsHotPkg reports whether pkg is on the scheduling hot path.
func IsHotPkg(pkg *types.Package) bool {
	return hotPkgs[pkg.Name()] || hotPkgs[pathTail(pkg.Path())]
}

func pathTail(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// --- running -------------------------------------------------------------

// RunAnalyzers applies each analyzer to each loaded package and returns the
// diagnostics sorted by file, line, column, then analyzer name.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	_, diags, err := RunAnalyzersProgram(pkgs, analyzers)
	return diags, err
}

// RunAnalyzersProgram is RunAnalyzers exposing the Program as well, so the
// driver can inspect run-wide state afterwards (the stale-waiver audit and
// module-relative paths).
func RunAnalyzersProgram(pkgs []*Package, analyzers []*Analyzer) (*Program, []Diagnostic, error) {
	var diags []Diagnostic
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Prog:      prog,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return prog, diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sortDiagnostics(diags)
	return prog, diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
