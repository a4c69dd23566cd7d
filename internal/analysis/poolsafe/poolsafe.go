// Package poolsafe enforces the ownership rules of the pooled protocol
// objects (coherence.Msg, mshr, pending): once a value flows into its
// release sink — System.free, L1.freeMshr, Bank.freePending, or a helper
// that forwards its parameter to one of those — the local variable holding
// it is dead. Reading or writing through it reads recycled state (the exact
// use-after-recycle MSHR bug class PR 1 fixed by hand), and releasing it
// again corrupts the free list.
//
// The pass is an intra-procedural, flow-sensitive dataflow over each
// function body: release sinks generate "freed" facts for the argument
// variable, reassignment kills them, and branches merge by union (freed on
// any path counts, except paths that terminate in return/break/continue).
// Sink summaries are a whole-program Facts entry (SinksFact), computed once
// over every function declaration of the load, that maps each function to
// the parameter indices it transitively releases — a function whose body
// passes a parameter to a base sink, or to any already summarized sink, is
// itself a sink for that parameter (fixpoint), so a value "flowing through
// helpers before free" is tracked across packages and at any depth.
//
// A flagged flow that is provably safe can be waived with //lockiller:pool-ok
// plus a justification.
package poolsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the poolsafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolsafe",
	Doc:  "flags use-after-free and double-free of pooled protocol objects",
	Run:  run,
}

// baseSinks are the release entry points, matched by name: each frees its
// first argument.
var baseSinks = map[string]bool{
	"free": true, "freeMshr": true, "freePending": true,
}

func run(pass *analysis.Pass) error {
	helpers, err := SinkSummaries(pass.Prog)
	if err != nil {
		return err
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a := &flow{pass: pass, helpers: helpers}
			a.stmts(fd.Body.List, state{})
			// Each closure body is its own flow: it executes at an unknown
			// later time, so its frees must not leak into the enclosing
			// function, but within the closure the ownership rules hold.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					a.stmts(lit.Body.List, state{})
				}
				return true
			})
		}
	}
	return nil
}

// SinksFact is the Facts key under which the whole-program sink summaries
// live: a map[*types.Func][]int from each function to the sorted parameter
// indices it transitively releases.
const SinksFact = "poolsafe.sinks"

// SinkSummaries computes (once per run, via the Facts store) which functions
// release which of their parameters, iterating over every function
// declaration of the load to a fixpoint: the seed is the base sinks matched
// by name, and a function that passes parameter i into the freed slot of any
// known sink is itself a sink for i. Other analyzers can reuse the result
// through SinksFact.
func SinkSummaries(prog *analysis.Program) (map[*types.Func][]int, error) {
	v, err := prog.Fact(SinksFact, func(prog *analysis.Program) (any, error) {
		sums := make(map[*types.Func][]int)
		for changed := true; changed; {
			changed = false
			for _, pkg := range prog.Pkgs {
				for _, f := range pkg.Files {
					for _, d := range f.Decls {
						if fd, ok := d.(*ast.FuncDecl); ok && summarize(pkg, fd, sums) {
							changed = true
						}
					}
				}
			}
		}
		return sums, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(map[*types.Func][]int), nil
}

// summarize adds to sums[fd] every parameter index fd passes into the freed
// slot of a known sink, and reports whether it added any.
func summarize(pkg *analysis.Package, fd *ast.FuncDecl, sums map[*types.Func][]int) bool {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if obj == nil || fd.Body == nil || baseSinks[obj.Name()] {
		return false
	}
	obj = obj.Origin()
	params := make(map[types.Object]int)
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if p := pkg.Info.Defs[name]; p != nil {
				params[p] = i
			}
			i++
		}
	}
	if len(params) == 0 {
		return false
	}
	freeSet := make(map[int]bool)
	for _, idx := range sums[obj] {
		freeSet[idx] = true
	}
	changed := false
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range freedArgsOf(call, pkg.Info, sums) {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if idx, ok := params[pkg.Info.Uses[id]]; ok && !freeSet[idx] {
					freeSet[idx] = true
					changed = true
				}
			}
		}
		return true
	})
	if changed {
		frees := make([]int, 0, len(freeSet))
		for idx := range freeSet {
			frees = append(frees, idx)
		}
		sort.Ints(frees)
		sums[obj] = frees
	}
	return changed
}

func isBaseSink(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return baseSinks[fun.Sel.Name]
	case *ast.Ident:
		return baseSinks[fun.Name]
	}
	return false
}

// state maps a variable to the position where it was freed.
type state map[*types.Var]token.Pos

func (st state) clone() state {
	c := make(state, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

// flow analyzes one function body.
type flow struct {
	pass    *analysis.Pass
	helpers map[*types.Func][]int
}

// stmts runs the statement list, threading the freed-state through.
// terminated reports that control cannot fall off the end of the list.
func (a *flow) stmts(list []ast.Stmt, st state) (out state, terminated bool) {
	for _, s := range list {
		st, terminated = a.stmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (a *flow) stmt(s ast.Stmt, st state) (state, bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		a.checkExpr(x.X, st, s)
		a.applyFrees(x.X, st, s)
		return st, false
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			a.checkExpr(r, st, s)
			a.applyFrees(r, st, s)
		}
		for _, l := range x.Lhs {
			// Index/selector sub-expressions of the target are reads.
			switch lv := ast.Unparen(l).(type) {
			case *ast.Ident:
				// Reassignment kills the freed fact: the name is rebound.
				if obj, ok := a.pass.TypesInfo.ObjectOf(lv).(*types.Var); ok {
					delete(st, obj)
				}
			default:
				a.checkExpr(l, st, s)
			}
		}
		return st, false
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						a.checkExpr(v, st, s)
						a.applyFrees(v, st, s)
					}
				}
			}
		}
		return st, false
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			a.checkExpr(r, st, s)
		}
		return st, true
	case *ast.BranchStmt:
		// break/continue/goto leave the linear flow; stop propagating.
		return st, true
	case *ast.BlockStmt:
		return a.stmts(x.List, st)
	case *ast.IfStmt:
		if x.Init != nil {
			st, _ = a.stmt(x.Init, st)
		}
		a.checkExpr(x.Cond, st, s)
		thenSt, thenTerm := a.stmts(x.Body.List, st.clone())
		elseSt, elseTerm := st, false
		if x.Else != nil {
			elseSt, elseTerm = a.stmt(x.Else, st.clone())
		}
		return mergeBranches(st, []state{thenSt, elseSt}, []bool{thenTerm, elseTerm}), thenTerm && elseTerm
	case *ast.ForStmt:
		if x.Init != nil {
			st, _ = a.stmt(x.Init, st)
		}
		if x.Cond != nil {
			a.checkExpr(x.Cond, st, s)
		}
		bodySt, bodyTerm := a.stmts(x.Body.List, st.clone())
		if x.Post != nil {
			a.stmt(x.Post, bodySt)
		}
		return mergeBranches(st, []state{bodySt}, []bool{bodyTerm}), false
	case *ast.RangeStmt:
		a.checkExpr(x.X, st, s)
		bodySt, bodyTerm := a.stmts(x.Body.List, st.clone())
		return mergeBranches(st, []state{bodySt}, []bool{bodyTerm}), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		if sw, ok := x.(*ast.SwitchStmt); ok {
			if sw.Init != nil {
				st, _ = a.stmt(sw.Init, st)
			}
			if sw.Tag != nil {
				a.checkExpr(sw.Tag, st, s)
			}
			body = sw.Body
		} else {
			ts := x.(*ast.TypeSwitchStmt)
			if ts.Init != nil {
				st, _ = a.stmt(ts.Init, st)
			}
			body = ts.Body
		}
		var states []state
		var terms []bool
		allTerm, hasDefault := len(body.List) > 0, false
		for _, cc := range body.List {
			clause := cc.(*ast.CaseClause)
			if clause.List == nil {
				hasDefault = true
			}
			for _, e := range clause.List {
				a.checkExpr(e, st, s)
			}
			cs, ct := a.stmts(clause.Body, st.clone())
			states = append(states, cs)
			terms = append(terms, ct)
			allTerm = allTerm && ct
		}
		return mergeBranches(st, states, terms), allTerm && hasDefault
	case *ast.LabeledStmt:
		return a.stmt(x.Stmt, st)
	case *ast.DeferStmt:
		a.checkExpr(x.Call, st, s)
		return st, false
	case *ast.GoStmt:
		a.checkExpr(x.Call, st, s)
		return st, false
	case *ast.SendStmt:
		a.checkExpr(x.Chan, st, s)
		a.checkExpr(x.Value, st, s)
		return st, false
	case *ast.IncDecStmt:
		a.checkExpr(x.X, st, s)
		return st, false
	default:
		return st, false
	}
}

// mergeBranches unions the freed facts of every branch that can fall
// through, on top of the incoming state.
func mergeBranches(in state, branches []state, terminated []bool) state {
	out := in
	for i, b := range branches {
		if terminated[i] {
			continue
		}
		for v, pos := range b {
			if _, ok := out[v]; !ok {
				out[v] = pos
			}
		}
	}
	return out
}

// checkExpr reports reads of freed variables anywhere inside e, except the
// argument slot of the sink call that frees them (applyFrees handles the
// double-free case).
func (a *flow) checkExpr(e ast.Expr, st state, stmt ast.Stmt) {
	if e == nil || len(st) == 0 {
		return
	}
	freeingArgs := make(map[*ast.Ident]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, arg := range a.freedArgs(call) {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					freeingArgs[id] = true
				}
			}
		}
		return true
	})
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || freeingArgs[id] {
			return true
		}
		v, ok := a.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if pos, freed := st[v]; freed {
			if !a.pass.Waived(stmt, analysis.DirectivePoolOK) {
				a.pass.Reportf(id.Pos(), "use of %s after it was freed at line %d: pooled objects must not be touched after release (see System.alloc ownership rules)",
					id.Name, a.pass.Fset.Position(pos).Line)
			}
		}
		return true
	})
}

// applyFrees marks variables freed by sink calls inside e, reporting double
// frees. Closure literals are skipped: their bodies run later and are
// analyzed as independent flows.
func (a *flow) applyFrees(e ast.Expr, st state, stmt ast.Stmt) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range a.freedArgs(call) {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := a.pass.TypesInfo.Uses[id].(*types.Var)
			if !ok {
				continue
			}
			if pos, freed := st[v]; freed {
				if !a.pass.Waived(stmt, analysis.DirectivePoolOK) {
					a.pass.Reportf(id.Pos(), "double free of %s (first freed at line %d): the free list would hand it out twice",
						id.Name, a.pass.Fset.Position(pos).Line)
				}
				continue
			}
			st[v] = id.Pos()
		}
		return true
	})
}

// freedArgs returns the arguments a call releases: the first argument of a
// base sink, or the summarized parameter slots of a sink helper.
func (a *flow) freedArgs(call *ast.CallExpr) []ast.Expr {
	return freedArgsOf(call, a.pass.TypesInfo, a.helpers)
}

// freedArgsOf is the shared resolution used by both the flow analysis and
// the fixpoint that builds the summaries it consults.
func freedArgsOf(call *ast.CallExpr, info *types.Info, sums map[*types.Func][]int) []ast.Expr {
	if isBaseSink(call) {
		if len(call.Args) > 0 {
			return call.Args[:1]
		}
		return nil
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	frees := sums[fn]
	if frees == nil {
		// Generic instantiations summarize under their origin.
		frees = sums[fn.Origin()]
	}
	var args []ast.Expr
	for _, idx := range frees {
		if idx < len(call.Args) {
			args = append(args, call.Args[idx])
		}
	}
	return args
}
