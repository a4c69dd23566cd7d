// Package evtalloc flags per-event closure allocation on the simulator's hot
// path. Moving the hot-path call sites to the typed zero-alloc API —
// AtEvent/AfterEvent dispatch to a Handler with two unboxed payload words —
// cut the full-sim allocation rate 11x, so new per-event closures in hot
// packages are regressions. Three shapes are flagged:
//
//   - a func literal passed to sim.Engine.At or sim.Engine.After;
//   - a func literal passed as the completion of an L1's Access, which
//     allocates one closure per memory access;
//   - a closure variable whose literal passes itself to Engine.At/After,
//     directly or from a nested literal: a wait loop that re-arms an
//     anonymous closure event, and in practice builds a fresh completion
//     literal on every iteration.
//
// Passing a prebound closure (built once at setup, reused per event) is the
// other sanctioned zero-steady-state-allocation pattern; a wait loop becomes
// a typed event kind plus a prebound completion. Cold paths that genuinely
// need an ad-hoc closure are waived with //lockiller:alloc-ok plus a
// justification.
package evtalloc

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the evtalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "evtalloc",
	Doc:  "flags per-event closures in hot packages: literals passed to Engine.At/After or as an L1.Access completion, and closures that re-arm themselves; steer to AtEvent/AfterEvent and prebound completions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsHotPkg(pass.Pkg) {
		return nil
	}
	report := func(n ast.Node, format string, args ...any) {
		if pass.Waived(n, analysis.DirectiveAllocOK) {
			return
		}
		pass.Reportf(n.Pos(), format+", or waive a cold path with //%s", append(args, analysis.DirectiveAllocOK)...)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := schedule(pass, n); ok && isLit(n.Args[1]) {
					report(n, "closure literal passed to Engine.%s in hot package %q allocates per event; use Engine.%sEvent (typed zero-alloc API) or a prebound closure",
						name, pass.Pkg.Name(), name)
				}
				if isL1Access(pass, n) && len(n.Args) > 0 && isLit(n.Args[len(n.Args)-1]) {
					report(n, "closure literal passed as the L1.Access completion in hot package %q allocates per access; park the state in a field and pass a prebound completion",
						pass.Pkg.Name())
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(n.Rhs) {
						continue
					}
					lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit)
					obj := pass.TypesInfo.ObjectOf(id)
					if !ok || obj == nil {
						continue
					}
					if name, rearm := selfRearm(pass, lit, obj); rearm != nil {
						report(rearm, "closure %s re-arms itself through Engine.%s in hot package %q: each wait is an anonymous closure event; use a typed AfterEvent kind with a prebound completion",
							id.Name, name, pass.Pkg.Name())
					}
				}
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

// schedule reports whether call is Engine.At or Engine.After with its two
// arguments, and which.
func schedule(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "At" && sel.Sel.Name != "After") || len(call.Args) != 2 {
		return "", false
	}
	return sel.Sel.Name, isNamed(pass, sel.X, "Engine")
}

// isL1Access reports whether call is the Access method of an L1.
func isL1Access(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Access" && isNamed(pass, sel.X, "L1")
}

// selfRearm returns the first Engine.At/After call inside lit, at any
// literal nesting depth, that schedules obj, the variable lit is assigned
// to, and which of the two it is; the call is nil if there is none.
func selfRearm(pass *analysis.Pass, lit *ast.FuncLit, obj types.Object) (name string, call *ast.CallExpr) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && call == nil {
			if nm, ok := schedule(pass, c); ok {
				if id, ok := ast.Unparen(c.Args[1]).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					name, call = nm, c
				}
			}
		}
		return call == nil
	})
	return name, call
}

// isNamed reports whether e's type is (a pointer to) a named type called
// name — sim.Engine or coherence.L1 in the real tree, local stand-ins in
// fixtures.
func isNamed(pass *analysis.Pass, e ast.Expr, name string) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}
