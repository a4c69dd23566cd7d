package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package of the module under analysis.
type Package struct {
	Path  string // import path, e.g. "repro/internal/sim"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files, in filename order
	Types *types.Package
	Info  *types.Info
}

// A Loader loads module packages from source and type-checks them with the
// standard library resolved through the compiler's source importer (the
// repository has no third-party dependencies, so "module-internal or stdlib"
// covers every import).
type Loader struct {
	ModRoot string // absolute module root (directory containing go.mod)
	ModPath string // module path from go.mod

	fset    *token.FileSet
	std     types.Importer
	typed   map[string]*types.Package
	loaded  map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module containing dir. It walks
// upward from dir to find go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: root,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		typed:   make(map[string]*types.Package),
		loaded:  make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Import implements types.Importer: module-internal paths load recursively
// from source; everything else resolves through the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if t, ok := l.typed[path]; ok {
		return t, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Dir returns the directory holding the module-internal import path.
func (l *Loader) Dir(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	return filepath.Join(l.ModRoot, filepath.FromSlash(rel))
}

// PathFor returns the import path of a directory inside the module.
func (l *Loader) PathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModRoot)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// Load parses and type-checks the module package at the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.loaded[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.Dir(path)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.loaded[path] = p
	l.typed[path] = tpkg
	return p, nil
}

// parseDir parses the non-test Go files of dir in filename order. Files
// excluded by a //go:build constraint under the default tag set (GOOS,
// GOARCH, compiler, release tags — no custom tags) are skipped, matching
// what `go build` with no -tags flag would compile.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !buildIncluded(f) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// buildIncluded reports whether the file's //go:build constraint (if any)
// is satisfied by the default build-tag set: target OS/arch, the gc
// compiler, and every go1.x release tag. Custom tags evaluate false,
// exactly as in an untagged `go build`.
func buildIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH ||
					tag == runtime.Compiler || tag == "unix" ||
					strings.HasPrefix(tag, "go1")
			})
		}
	}
	return true
}

// Expand resolves package patterns to import paths. Supported patterns:
// "./..." (every package under the module root), "./x" or "x" relative
// directories, and fully-qualified module import paths.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var paths []string
	seen := make(map[string]bool)
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "all":
			all, err := l.allPackages()
			if err != nil {
				return nil, err
			}
			for _, p := range all {
				add(p)
			}
		case pat == l.ModPath || strings.HasPrefix(pat, l.ModPath+"/"):
			add(pat)
		default:
			p, err := l.PathFor(pat)
			if err != nil {
				return nil, err
			}
			add(p)
		}
	}
	return paths, nil
}

// allPackages walks the module tree and returns every directory holding at
// least one non-test Go file. testdata, vendor, out, and hidden directories
// are skipped (matching the go tool's "./..." semantics).
func (l *Loader) allPackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if p != l.ModRoot && (n == "testdata" || n == "vendor" || n == "out" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		n := d.Name()
		if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			return nil
		}
		ip, err := l.PathFor(filepath.Dir(p))
		if err != nil {
			return err
		}
		if len(paths) == 0 || paths[len(paths)-1] != ip {
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// LoadAll loads every package named by the patterns.
func (l *Loader) LoadAll(patterns []string) ([]*Package, error) {
	paths, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
