// Package hostclock enforces the host/simulated time boundary that the obs
// layer introduces (DESIGN.md §14): wall-clock reads — time.Now,
// time.Since, time.Until — may appear only in package obs. nowallclock
// already bans them inside the deterministic packages; hostclock extends
// the ban to the whole repository, because a wall-clock read anywhere
// outside obs is either a measurement that belongs in the ledger/profiler
// (route it through obs.StartTimer) or a host value about to leak into
// model state. Package main may waive a line with //lockiller:hostclock-ok
// (a CLI printing "finished at ..." is harmless); the waiver is ignored
// everywhere else. The nil-guard rule for obs.EngineProbe calls lives in
// tracehook with the other observer hooks.
package hostclock

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the hostclock pass.
var Analyzer = &analysis.Analyzer{
	Name: "hostclock",
	Doc:  "confines wall-clock reads to internal/obs",
	Run:  run,
}

// clockFuncs are the wall-clock reads confined to package obs.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "obs" {
		return nil // the sanctioned home of the host clock
	}
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				checkClock(pass, sel, isMain)
			}
			return true
		})
	}
	return nil
}

// checkClock flags time.Now/Since/Until selections outside package obs.
func checkClock(pass *analysis.Pass, sel *ast.SelectorExpr, isMain bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "time" || !clockFuncs[sel.Sel.Name] {
		return
	}
	if isMain && pass.Waived(sel, analysis.DirectiveHostClockOK) {
		return
	}
	pass.Reportf(sel.Pos(),
		"time.%s outside internal/obs (package %q): host clocks are confined to obs — measure with obs.StartTimer/Timer.Elapsed, or waive a main-package line with //%s",
		sel.Sel.Name, pass.Pkg.Name(), analysis.DirectiveHostClockOK)
}
