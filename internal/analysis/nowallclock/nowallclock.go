// Package nowallclock polices nondeterministic inputs with one rule table,
// applied at two strengths.
//
// Inside the deterministic simulator packages it forbids the whole table —
// wall-clock reads and timers (time.Now and friends), the global math/rand
// generators, process environment reads — plus goroutine/channel use.
// Simulated time comes from sim.Engine.Now, and all randomness must flow
// through internal/sim's seeded RNG (sim.NewRNG / RNG.Split) so that every
// run replays bit-for-bit from its seed; the event loop is single-threaded by
// design, so any goroutine or channel in these packages injects scheduler
// nondeterminism. None of these checks can be waived.
//
// Everywhere else except package obs it forbids the table's host-clock reads
// (time.Now, time.Since, time.Until), enforcing the host/simulated time
// boundary of the obs layer (DESIGN.md §14): a wall-clock read outside obs is
// either a measurement that belongs in the ledger/profiler (route it through
// obs.StartTimer) or a host value about to leak into model state. Package
// main may waive such a line with //lockiller:hostclock-ok (a CLI printing
// "finished at ..." is harmless); the waiver is ignored everywhere else.
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
	Doc:  "forbids wall-clock, global rand, env reads, goroutines, and channels in deterministic packages, and wall-clock reads outside internal/obs",
	Run:  run,
}

// rule is one forbidden function: the fix to steer deterministic code to,
// and whether it is a host-clock read, forbidden in every package but obs.
type rule struct {
	steer     string
	hostClock bool
}

const (
	steerClock = "use sim.Engine.Now (simulated cycles)"
	steerTimer = "schedule with sim.Engine.AfterEvent"
	steerEnv   = "thread configuration through Params/Config structs"
	steerRand  = "use the seeded sim.NewRNG / RNG.Split streams"
)

// forbidden maps package path -> function name -> rule. An empty function
// set forbids every package-level function of that package (deterministic
// packages only).
var forbidden = map[string]map[string]rule{
	"time": {
		"Now":       {steer: steerClock, hostClock: true},
		"Since":     {steer: steerClock, hostClock: true},
		"Until":     {steer: steerClock, hostClock: true},
		"Sleep":     {steer: steerTimer},
		"After":     {steer: steerTimer},
		"Tick":      {steer: steerTimer},
		"NewTimer":  {steer: steerTimer},
		"NewTicker": {steer: steerTimer},
	},
	"math/rand":    {}, // any use: global or ad-hoc sources are unseeded/shared
	"math/rand/v2": {},
	"os": {
		"Getenv":    {steer: steerEnv},
		"LookupEnv": {steer: steerEnv},
		"Environ":   {steer: steerEnv},
	},
}

func run(pass *analysis.Pass) error {
	det := analysis.IsDeterministicPkg(pass.Pkg)
	if !det && pass.Pkg.Name() == "obs" {
		return nil // the sanctioned home of the host clock
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				checkSelector(pass, sel, det)
			} else if det {
				checkConcurrency(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkConcurrency flags goroutine and channel use in a deterministic
// package.
func checkConcurrency(pass *analysis.Pass, n ast.Node) {
	switch x := n.(type) {
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
}

// checkSelector flags pkg.Func selections of the forbidden API surface: the
// whole table in a deterministic package (det), the host-clock reads
// elsewhere.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr, det bool) {
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
			if det {
				pass.Reportf(sel.Pos(), "%s.%s in deterministic package %q: %s", path, sel.Sel.Name, pass.Pkg.Name(), steerRand)
			}
		}
		return
	}
	r, bad := funcs[sel.Sel.Name]
	switch {
	case !bad:
	case det:
		pass.Reportf(sel.Pos(), "%s.%s in deterministic package %q: %s", path, sel.Sel.Name, pass.Pkg.Name(), r.steer)
	case r.hostClock && !(pass.Pkg.Name() == "main" && pass.Waived(sel, analysis.DirectiveHostClockOK)):
		pass.Reportf(sel.Pos(),
			"%s.%s outside internal/obs (package %q): host clocks are confined to obs — measure with obs.StartTimer/Timer.Elapsed, or waive a main-package line with //%s",
			path, sel.Sel.Name, pass.Pkg.Name(), analysis.DirectiveHostClockOK)
	}
}
