// Package tracehook flags unguarded observability calls on the simulator's
// hot path. Tracer.Emit/Emitf and the Telemetry hook methods are all
// nil-receiver-safe, but an unguarded call still pays full argument
// evaluation — fmt varargs boxing, Now() reads, set-membership lookups — on
// every event even when observability is disabled. The sanctioned idiom
// hides the whole call behind a branch:
//
//	if tr := cfg.Tracer; tr.Enabled(trace.CatNoC) {
//		tr.Emitf(core, trace.CatNoC, line, "enqueue wait=%d", wait)
//	}
//	if t := sys.Telemetry; t != nil {
//		t.Conflict(winner, loser, line, read, write, aborted)
//	}
//
// so the disabled path costs one branch and zero argument evaluation. The
// analyzer flags any Tracer.Emit/Emitf or Telemetry hook call in a hot
// package that is not lexically inside an if whose condition checks
// Enabled(...) or compares the handle against nil. Cold paths that
// deliberately call unguarded are waived with //lockiller:trace-ok plus a
// justification.
//
// The same guard rule covers obs.EngineProbe method calls in every package
// except obs itself: the probe is nil in every unprofiled run, and the guard
// is what makes the disabled cost one pointer test instead of an interface
// dispatch per event. An EngineProbe is an interface with no Enabled method,
// so only a nil comparison guards it, and the rule has no waiver.
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
	Doc:  "flags unguarded Tracer.Emit/Emitf or Telemetry hook calls in hot packages, and unguarded EngineProbe calls outside obs; wrap in an Enabled()/nil guard",
	Run:  run,
}

// tracerMethods are the Tracer recording entry points.
var tracerMethods = map[string]bool{"Emit": true, "Emitf": true}

// telemetryMethods are the Telemetry hot-path hooks.
var telemetryMethods = map[string]bool{
	"Segment": true, "TxBegin": true, "TxCommit": true,
	"TxAbort": true, "Conflict": true,
}

func run(pass *analysis.Pass) error {
	hot := analysis.IsHotPkg(pass.Pkg)
	probes := pass.Pkg.Name() != "obs" // obs implements the probe
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
			name := sel.Sel.Name
			var recv string
			switch {
			case probes && isNamed(pass, sel.X, "EngineProbe"):
				if !guarded(pass, call, false) {
					pass.Reportf(call.Pos(),
						"unguarded EngineProbe.%s call: the probe is nil in unprofiled runs; wrap the call in an if that compares the probe against nil",
						name)
				}
				return true
			case hot && tracerMethods[name] && isNamed(pass, sel.X, "Tracer"):
				recv = "Tracer"
			case hot && telemetryMethods[name] && isNamed(pass, sel.X, "Telemetry"):
				recv = "Telemetry"
			default:
				return true
			}
			if guarded(pass, call, true) || pass.Waived(call, analysis.DirectiveTraceOK) {
				return true
			}
			pass.Reportf(call.Pos(),
				"unguarded %s.%s call in hot package %q evaluates its arguments even when observability is off; wrap in an Enabled()/nil-check if, or waive a cold path with //%s",
				recv, name, pass.Pkg.Name(), analysis.DirectiveTraceOK)
			return true
		})
	}
	return nil
}

// guarded reports whether the call sits in the body of an if whose condition
// performs a nil comparison or, when enabledOK, checks Enabled(...). The
// search stops at the enclosing function boundary: a guard outside a func
// literal does not cover calls that run when the literal is later invoked.
func guarded(pass *analysis.Pass, call *ast.CallExpr, enabledOK bool) bool {
	var prev ast.Node = call
	for cur := pass.ParentOf(call); cur != nil; cur = pass.ParentOf(cur) {
		switch p := cur.(type) {
		case *ast.IfStmt:
			if prev == p.Body && condGuards(p.Cond, enabledOK) {
				return true
			}
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
		prev = cur
	}
	return false
}

// condGuards reports whether cond contains a comparison against nil or, when
// enabledOK, an Enabled(...) call.
func condGuards(cond ast.Expr, enabledOK bool) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if s, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && enabledOK && s.Sel.Name == "Enabled" {
				found = true
			}
		case *ast.BinaryExpr:
			if e.Op == token.NEQ || e.Op == token.EQL {
				if isNil(e.X) || isNil(e.Y) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isNamed reports whether e's type is (a pointer to) a named type with the
// given name — trace.Tracer / telemetry.Telemetry / obs.EngineProbe in the
// real tree, local stand-ins in fixtures.
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
