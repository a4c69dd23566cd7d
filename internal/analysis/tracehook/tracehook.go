// Package tracehook checks the one guard rule of the two observer
// interfaces, trace.Observer (the model-event stream) and obs.EngineProbe
// (the engine self-profiler): every call through either must sit in the
// body of an if whose condition compares that handle against nil, alone or
// in a && chain:
//
//	if o := l1.sys.Obs; o != nil {
//		o.Event(trace.Event{Kind: trace.KindCommit, Core: l1.core})
//	}
//
// Both handles are nil in an unobserved run, where a call would panic and
// the guard keeps the cost to one pointer test. A guard outside a func
// literal does not cover the calls inside it. The rule holds in every
// package but the interface's own, and it has no waiver.
package tracehook

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the tracehook pass.
var Analyzer = &analysis.Analyzer{
	Name: "tracehook",
	Doc:  "flags trace.Observer and obs.EngineProbe calls outside an if that compares the handle against nil",
	Run:  run,
}

// home names the package that defines each guarded interface.
var home = map[string]string{"Observer": "trace", "EngineProbe": "obs"}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			iface := typeName(pass, sel.X)
			pkg, guardedIface := home[iface]
			if !guardedIface || pass.Pkg.Name() == pkg || guarded(pass, call, types.ExprString(sel.X)) {
				return true
			}
			pass.Reportf(call.Pos(),
				"unguarded %s.%s call: the handle is nil in an unobserved run; wrap the call in an if that compares %s against nil",
				iface, sel.Sel.Name, types.ExprString(sel.X))
			return true
		})
	}
	return nil
}

// guarded reports whether the call sits in the body of an if whose
// condition implies handle != nil, within the call's own function.
func guarded(pass *analysis.Pass, call *ast.CallExpr, handle string) bool {
	var prev ast.Node = call
	for cur := pass.ParentOf(call); cur != nil; cur = pass.ParentOf(cur) {
		switch p := cur.(type) {
		case *ast.IfStmt:
			if prev == p.Body && implies(p.Cond, handle) {
				return true
			}
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
		prev = cur
	}
	return false
}

// implies reports whether cond is handle != nil or a && chain holding it.
func implies(cond ast.Expr, handle string) bool {
	e, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	switch {
	case !ok:
		return false
	case e.Op == token.LAND:
		return implies(e.X, handle) || implies(e.Y, handle)
	case e.Op == token.NEQ:
		return isNil(e.Y) && types.ExprString(e.X) == handle ||
			isNil(e.X) && types.ExprString(e.Y) == handle
	}
	return false
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// typeName returns the name of e's type if it is a named interface:
// trace.Observer and obs.EngineProbe in the real tree, local stand-ins in
// fixtures.
func typeName(pass *analysis.Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	if named, ok := tv.Type.(*types.Named); ok && types.IsInterface(named) {
		return named.Obj().Name()
	}
	return ""
}
