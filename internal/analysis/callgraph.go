package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds a whole-load call graph from the typed syntax trees;
// poolsafe walks its nodes to derive transitive release-sink summaries.
//
// Nodes are declared functions/methods (keyed by their *types.Func, with
// generic instantiations normalized to their origin) plus every function
// literal, which is its own node: a literal's call edges belong to the
// literal, and its definer gets a "defines" edge to it, so anything a closure
// can do is reachable from the function that created it even when the call
// happens later through a scheduler or a dispatch table.
//
// Call edges come from two resolvers:
//
//   - static calls and method calls on concrete receivers bind to the named
//     callee directly;
//   - interface method calls bind to the corresponding method of every named
//     type in the load that implements the interface (types.Implements).
//
// Every other call — an interface call with no in-load implementation, or a
// call through a function-typed value — is recorded as a dynamic site.
type CallGraph struct {
	prog *Program

	nodes []*CGNode // creation order: packages sorted by path, files, decls
	byObj map[*types.Func]*CGNode

	namedTypes []*types.TypeName // package-level named types, decl order
	ifaceCache map[ifaceMethodKey][]*types.Func
}

// A CGNode is one function in the call graph: either a declared function or
// method (Obj != nil) or a function literal (Lit != nil).
type CGNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Pkg  *Package

	Callees []*CGNode // deduplicated, in first-encounter order

	// DynSites are this node's call expressions that static and interface
	// resolution could not bind (including interface calls with no in-load
	// implementation, with Iface=true).
	DynSites []DynSite

	calleeSet map[*CGNode]bool
}

// A DynSite is one unresolved call site.
type DynSite struct {
	Call  *ast.CallExpr
	Sig   *types.Signature
	Iface bool
}

type ifaceMethodKey struct {
	iface *types.Interface
	name  string
}

// funcSig returns a function object's signature. (The go1.23 accessor
// (*types.Func).Signature is off-limits while the module pins go1.22.)
func funcSig(obj *types.Func) *types.Signature {
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

// CallGraphFact is the Facts key under which the shared call graph lives.
const CallGraphFact = "analysis.callgraph"

// BuildCallGraph returns the memoized whole-load call graph for prog.
func BuildCallGraph(prog *Program) (*CallGraph, error) {
	v, err := prog.Fact(CallGraphFact, func(prog *Program) (any, error) {
		g := &CallGraph{
			prog:       prog,
			byObj:      make(map[*types.Func]*CGNode),
			ifaceCache: make(map[ifaceMethodKey][]*types.Func),
		}
		g.build()
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*CallGraph), nil
}

// NodeFor returns the node of a declared function, or nil.
func (g *CallGraph) NodeFor(obj *types.Func) *CGNode {
	if obj == nil {
		return nil
	}
	return g.byObj[obj.Origin()]
}

// Nodes returns every node in deterministic creation order.
func (g *CallGraph) Nodes() []*CGNode { return g.nodes }

func (g *CallGraph) build() {
	pkgs := append([]*Package(nil), g.prog.Pkgs...)
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })

	// Pass 1: create nodes for declarations and literals, collect named types.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if obj == nil {
						continue
					}
					n := &CGNode{Obj: obj.Origin(), Decl: d, Pkg: pkg, calleeSet: make(map[*CGNode]bool)}
					g.nodes = append(g.nodes, n)
					g.byObj[obj.Origin()] = n
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
							g.namedTypes = append(g.namedTypes, tn)
						}
					}
				}
			}
		}
	}
	// Literals, attributed to their innermost enclosing node (a declared
	// function, a package-level var initializer — modelled as no parent — or
	// another literal).
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			var stack []*CGNode
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					stack = append(stack, g.byObjDecl(pkg, x))
					ast.Inspect(x.Body, walk)
					stack = stack[:len(stack)-1]
					return false
				case *ast.FuncLit:
					ln := &CGNode{Lit: x, Pkg: pkg, calleeSet: make(map[*CGNode]bool)}
					g.nodes = append(g.nodes, ln)
					if len(stack) > 0 && stack[len(stack)-1] != nil {
						stack[len(stack)-1].addCallee(ln)
					}
					stack = append(stack, ln)
					ast.Inspect(x.Body, walk)
					stack = stack[:len(stack)-1]
					return false
				}
				return true
			}
			for _, decl := range f.Decls {
				ast.Inspect(decl, walk)
			}
		}
	}

	// Pass 2: resolve call edges per node body.
	for _, n := range g.nodes {
		var body *ast.BlockStmt
		if n.Decl != nil {
			body = n.Decl.Body
		} else {
			body = n.Lit.Body
		}
		if body != nil {
			g.resolveBody(n, body)
		}
	}
}

func (g *CallGraph) byObjDecl(pkg *Package, d *ast.FuncDecl) *CGNode {
	if obj, _ := pkg.Info.Defs[d.Name].(*types.Func); obj != nil {
		return g.byObj[obj.Origin()]
	}
	return nil
}

// resolveBody walks one node's body (excluding nested literals, which are
// their own nodes) classifying its calls.
func (g *CallGraph) resolveBody(n *CGNode, body *ast.BlockStmt) {
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			g.resolveCall(n, x)
		}
		return true
	})
}

// resolveCall classifies one call expression in node n.
func (g *CallGraph) resolveCall(n *CGNode, call *ast.CallExpr) {
	info := n.Pkg.Info
	fun := unparen(call.Fun)

	// Type conversions and built-ins are not calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			g.addEdge(n, obj.Origin())
			return
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
			sig, _ := obj.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				g.resolveInterfaceCall(n, call, obj)
				return
			}
			g.addEdge(n, obj.Origin())
			return
		}
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Explicitly instantiated generic function: the index expression's
		// operand identifies the origin function.
		var base ast.Expr
		if ix, ok := fun.(*ast.IndexExpr); ok {
			base = ix.X
		} else {
			base = fun.(*ast.IndexListExpr).X
		}
		switch b := unparen(base).(type) {
		case *ast.Ident:
			if obj, ok := info.Uses[b].(*types.Func); ok {
				g.addEdge(n, obj.Origin())
				return
			}
		case *ast.SelectorExpr:
			if obj, ok := info.Uses[b.Sel].(*types.Func); ok {
				g.addEdge(n, obj.Origin())
				return
			}
		}
	}

	// A call through a function-typed value.
	n.DynSites = append(n.DynSites, DynSite{Call: call, Sig: dynSig(info, call)})
}

func dynSig(info *types.Info, call *ast.CallExpr) *types.Signature {
	if tv, ok := info.Types[unparen(call.Fun)]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// resolveInterfaceCall binds a method call on an interface value to the
// matching method of every named type in the load that implements it.
func (g *CallGraph) resolveInterfaceCall(n *CGNode, call *ast.CallExpr, m *types.Func) {
	iface, _ := funcSig(m).Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		n.DynSites = append(n.DynSites, DynSite{Call: call, Sig: funcSig(m), Iface: true})
		return
	}
	impls := g.implementers(iface, m.Name())
	if len(impls) == 0 {
		// No in-load implementation: the call stays dynamic.
		n.DynSites = append(n.DynSites, DynSite{Call: call, Sig: funcSig(m), Iface: true})
		return
	}
	for _, impl := range impls {
		g.addEdge(n, impl)
	}
}

// implementers returns, in declaration order, the named concrete methods
// implementing iface's method name among the load's package-level types.
func (g *CallGraph) implementers(iface *types.Interface, name string) []*types.Func {
	key := ifaceMethodKey{iface, name}
	if got, ok := g.ifaceCache[key]; ok {
		return got
	}
	var impls []*types.Func
	for _, tn := range g.namedTypes {
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), name)
		if fn, ok := obj.(*types.Func); ok {
			impls = append(impls, fn.Origin())
		}
	}
	g.ifaceCache[key] = impls
	return impls
}

func (g *CallGraph) addEdge(n *CGNode, obj *types.Func) {
	target := g.byObj[obj]
	if target == nil {
		// Callee outside the load (stdlib): not a node.
		return
	}
	n.addCallee(target)
}

func (n *CGNode) addCallee(t *CGNode) {
	if t == nil || n.calleeSet[t] {
		return
	}
	n.calleeSet[t] = true
	n.Callees = append(n.Callees, t)
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
