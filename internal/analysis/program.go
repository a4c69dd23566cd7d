package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Program is the whole-load view shared by every analyzer in one run: all
// loaded packages under one FileSet, a memoized Facts store so expensive
// derived structures (the call graph, poolsafe's sink summaries) are built
// once and reused across analyzers, and the global waiver index with
// per-comment used/unused tracking for the stale-waiver audit. Analyzers
// reach it through Pass.Prog.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	// ModRoot, when set, is stripped from filenames by RelPath so exported
	// artifacts (JSON diagnostics) are stable across checkouts. Empty for
	// fixture loads.
	ModRoot string

	facts        map[string]any
	factBuilding map[string]bool

	waivers map[string]map[int][]*waiverSite // filename -> line -> directives
}

// A waiverSite is one //lockiller:* suppression comment found in the load.
type waiverSite struct {
	Directive string
	Pos       token.Position
	Used      bool
}

// A WaiverSite identifies one waiver comment for the stale-waiver audit.
type WaiverSite struct {
	Directive string
	Pos       token.Position
}

// NewProgram indexes the packages of one analysis run. All packages must
// share one FileSet (true for Loader loads and for fixture loads).
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		facts:        make(map[string]any),
		factBuilding: make(map[string]bool),
		waivers:      make(map[string]map[int][]*waiverSite),
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
		prog.ModRoot = findModRoot(pkgs[0].Dir)
	}
	prog.Pkgs = pkgs
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "lockiller:") {
						continue
					}
					dir := text
					if i := strings.IndexAny(text, " \t"); i >= 0 {
						dir = text[:i]
					}
					pos := prog.Fset.Position(c.Pos())
					lines := prog.waivers[pos.Filename]
					if lines == nil {
						lines = make(map[int][]*waiverSite)
						prog.waivers[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line], &waiverSite{Directive: dir, Pos: pos})
				}
			}
		}
	}
	return prog
}

// findModRoot walks up from dir to the directory containing go.mod, so
// RelPath can render checkout-independent paths. Returns "" when dir is not
// inside a module (synthetic fixture loads).
func findModRoot(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return ""
		}
		d = parent
	}
}

// WaivedAt reports whether a directive comment sits on pos's line or the line
// directly above it, and marks the comment used for the stale-waiver audit.
func (prog *Program) WaivedAt(pos token.Pos, directive string) bool {
	p := prog.Fset.Position(pos)
	lines := prog.waivers[p.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, l := range []int{p.Line, p.Line - 1} {
		for _, w := range lines[l] {
			if w.Directive == directive {
				w.Used = true
				hit = true
			}
		}
	}
	return hit
}

// UnusedWaivers returns every waiver comment that matched zero diagnostics
// in this run, sorted by file, line, then directive.
func (prog *Program) UnusedWaivers() []WaiverSite {
	var out []WaiverSite
	for _, lines := range prog.waivers {
		for _, ws := range lines {
			for _, w := range ws {
				if !w.Used {
					out = append(out, WaiverSite{Directive: w.Directive, Pos: w.Pos})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Directive < b.Directive
	})
	return out
}

// Fact returns the memoized result of build for key, computing it on first
// use. One analyzer's derived structures (the call graph) become reusable
// by every other analyzer in the same run.
func (prog *Program) Fact(key string, build func(*Program) (any, error)) (any, error) {
	if v, ok := prog.facts[key]; ok {
		return v, nil
	}
	if prog.factBuilding[key] {
		return nil, fmt.Errorf("analysis: fact cycle through %q", key)
	}
	prog.factBuilding[key] = true
	defer delete(prog.factBuilding, key)
	v, err := build(prog)
	if err != nil {
		return nil, err
	}
	prog.facts[key] = v
	return v, nil
}

// RelPath renders filename relative to the module root when known; exported
// artifacts use this so they do not embed the checkout location.
func (prog *Program) RelPath(filename string) string {
	if prog.ModRoot != "" {
		if rel, err := filepath.Rel(prog.ModRoot, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}
