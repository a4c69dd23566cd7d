package analysis_test

import (
	"go/types"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// writeModule materializes a throwaway module in a temp dir and loads every
// package in it through the source loader.
func writeModule(t *testing.T, files map[string]string) []*analysis.Package {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func funcNode(t *testing.T, g *analysis.CallGraph, pkgs []*analysis.Package, name string) *analysis.CGNode {
	t.Helper()
	for _, pkg := range pkgs {
		if obj, ok := pkg.Types.Scope().Lookup(name).(*types.Func); ok {
			if n := g.NodeFor(obj); n != nil {
				return n
			}
		}
	}
	t.Fatalf("no call-graph node for %s", name)
	return nil
}

// TestInterfaceDispatch pins the two halves of interface-call resolution in
// the call graph: a call with an in-load implementation binds to that method
// (an edge to it), and a call with no implementation is recorded as a
// dynamic interface site instead of silently vanishing.
func TestInterfaceDispatch(t *testing.T) {
	pkgs := writeModule(t, map[string]string{
		"go.mod": "module seeded\n\ngo 1.22\n",
		"m/m.go": `package m

type I interface{ Do() }

type T struct{ n int }

func (t *T) Do() { t.n = 1 }

func Run(i I) { i.Do() }

type Ext interface{ Gone() }

func RunExt(e Ext) { e.Gone() }
`,
	})
	g, err := analysis.BuildCallGraph(analysis.NewProgram(pkgs))
	if err != nil {
		t.Fatal(err)
	}

	run := funcNode(t, g, pkgs, "Run")
	tType, ok := pkgs[0].Types.Scope().Lookup("T").(*types.TypeName)
	if !ok {
		t.Fatal("no type T in the fixture")
	}
	doObj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tType.Type()), true, tType.Pkg(), "Do")
	do := g.NodeFor(doObj.(*types.Func))
	if do == nil {
		t.Fatal("no call-graph node for (*T).Do")
	}
	reached := false
	for _, c := range run.Callees {
		if c == do {
			reached = true
		}
	}
	if !reached {
		t.Error("Run does not reach (*T).Do through the interface call")
	}
	if len(run.DynSites) != 0 {
		t.Errorf("Run: resolved interface call also left %d dynamic sites", len(run.DynSites))
	}

	ext := funcNode(t, g, pkgs, "RunExt")
	if len(ext.Callees) != 0 {
		t.Errorf("RunExt: unimplementable interface call bound to %d callees", len(ext.Callees))
	}
	if len(ext.DynSites) != 1 || !ext.DynSites[0].Iface {
		t.Errorf("RunExt: want one dynamic interface site, got %+v", ext.DynSites)
	}
}
