// Package evtalloc flags per-access closure allocation on the simulator's
// hot path: a func literal passed as the completion of an L1's Access
// allocates one closure per memory access. Every engine event is a typed
// Handler call with two unboxed payload words, so an access completion is
// where a hot package could still build a closure per operation. Park the
// state in a field and pass a completion prebound once at construction;
// a cold path that genuinely needs an ad-hoc closure is waived with
// //lockiller:alloc-ok plus a justification.
package evtalloc

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the evtalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "evtalloc",
	Doc:  "flags func literals passed as an L1.Access completion in hot packages (one closure per memory access); steer to prebound completions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsHotPkg(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok && isL1Access(pass, call) && len(call.Args) > 0 && isLit(call.Args[len(call.Args)-1]) &&
				!pass.Waived(call, analysis.DirectiveAllocOK) {
				pass.Reportf(call.Pos(), "closure literal passed as the L1.Access completion in hot package %q allocates per access; park the state in a field and pass a prebound completion, or waive a cold path with //%s",
					pass.Pkg.Name(), analysis.DirectiveAllocOK)
			}
			return true
		})
	}
	return nil
}

// isLit reports whether e is a func literal.
func isLit(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.FuncLit)
	return ok
}

// isL1Access reports whether call is the Access method of a (pointer to a)
// named type called L1 — coherence.L1 in the real tree, a local stand-in in
// fixtures.
func isL1Access(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Access" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "L1"
}
