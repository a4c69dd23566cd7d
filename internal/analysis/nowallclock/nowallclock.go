// Package nowallclock forbids nondeterministic inputs and concurrency inside
// the deterministic simulator packages: wall-clock reads (time.Now and
// friends), the global math/rand generators, process environment reads, and
// goroutine/channel use. Simulated time comes from sim.Engine.Now, and all
// randomness must flow through internal/sim's seeded RNG (sim.NewRNG /
// RNG.Split) so that every run replays bit-for-bit from its seed; the event
// loop is single-threaded by design, so any goroutine or channel in these
// packages injects scheduler nondeterminism. None of these checks can be
// waived.
package nowallclock

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the nowallclock pass.
var Analyzer = &analysis.Analyzer{
	Name: "nowallclock",
	Doc:  "forbids wall-clock, global rand, env reads, goroutines, and channels in deterministic packages",
	Run:  run,
}

// forbidden maps package path -> function name -> steer text. An empty
// function set forbids every package-level function of that package.
var forbidden = map[string]map[string]string{
	"time": {
		"Now":       "use sim.Engine.Now (simulated cycles)",
		"Since":     "use sim.Engine.Now (simulated cycles)",
		"Until":     "use sim.Engine.Now (simulated cycles)",
		"Sleep":     "schedule with sim.Engine.After",
		"After":     "schedule with sim.Engine.After",
		"Tick":      "schedule with sim.Engine.After",
		"NewTimer":  "schedule with sim.Engine.After",
		"NewTicker": "schedule with sim.Engine.After",
	},
	"math/rand":    {}, // any use: global or ad-hoc sources are unseeded/shared
	"math/rand/v2": {},
	"os": {
		"Getenv":    "thread configuration through Params/Config structs",
		"LookupEnv": "thread configuration through Params/Config structs",
		"Environ":   "thread configuration through Params/Config structs",
	},
}

const steerRand = "use the seeded sim.NewRNG / RNG.Split streams"

func run(pass *analysis.Pass) error {
	if !analysis.IsDeterministicPkg(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, x)
			case *ast.GoStmt:
				pass.Reportf(x.Pos(), "goroutine in deterministic package %q: the event loop is single-threaded; schedule with sim.Engine instead", pass.Pkg.Name())
			case *ast.SendStmt:
				pass.Reportf(x.Pos(), "channel send in deterministic package %q: channels order by the Go scheduler, not by simulated time", pass.Pkg.Name())
			case *ast.SelectStmt:
				pass.Reportf(x.Pos(), "select in deterministic package %q: channels order by the Go scheduler, not by simulated time", pass.Pkg.Name())
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					pass.Reportf(x.Pos(), "channel receive in deterministic package %q: channels order by the Go scheduler, not by simulated time", pass.Pkg.Name())
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
						pass.Reportf(x.Pos(), "channel close in deterministic package %q", pass.Pkg.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkSelector flags pkg.Func selections of the forbidden API surface.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	path := pn.Imported().Path()
	funcs, ok := forbidden[path]
	if !ok {
		return
	}
	if len(funcs) == 0 {
		// Whole package forbidden (math/rand): only flag function or
		// variable references, not types like rand.Source in signatures.
		switch pass.TypesInfo.Uses[sel.Sel].(type) {
		case *types.Func, *types.Var:
			pass.Reportf(sel.Pos(), "%s.%s in deterministic package %q: %s", path, sel.Sel.Name, pass.Pkg.Name(), steerRand)
		}
		return
	}
	if steer, bad := funcs[sel.Sel.Name]; bad {
		pass.Reportf(sel.Pos(), "%s.%s in deterministic package %q: %s", path, sel.Sel.Name, pass.Pkg.Name(), steer)
	}
}
