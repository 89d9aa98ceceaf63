package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the parsed files (non-test
// plus in-package test files — external _test packages are out of scope),
// the types.Package and the fully populated types.Info the analyzers walk.
type Package struct {
	// Path is the package's import path, derived from the enclosing module
	// (or the directory path when no go.mod is found).
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed files: every non-test file first, then the
	// in-package test files (see TestFile).
	Files []*ast.File
	// TestFile reports, per parsed file, whether it came from a _test.go
	// file. Analyzers that only govern shipped code (exported-godoc) skip
	// test files; analyzers about test coverage (wire-exhaustive) need them.
	TestFile map[*ast.File]bool
	// Pkg and Info are the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info
}

// Loader parses and type-checks packages using only the standard library:
// go/build for file selection (build tags, platform suffixes), go/parser,
// and go/types with the stdlib source importer for dependencies. One Loader
// shares a FileSet and an importer cache across every Load call, so a
// multi-package run type-checks each dependency once.
type Loader struct {
	// Fset is the shared position table for every loaded file.
	Fset *token.FileSet

	std     types.ImporterFrom
	loaded  map[string]*Package // by directory (cleaned, absolute)
	byPath  map[string]*Package // by import path, for the chained importer
	modRoot map[string]string   // module path -> module root directory
}

// NewLoader returns a Loader with a fresh FileSet and importer cache. It
// disables cgo in the build context: the source importer cannot process cgo
// packages, and none of this repository's code needs them.
func NewLoader() *Loader {
	build.Default.CgoEnabled = false
	l := &Loader{
		Fset:    token.NewFileSet(),
		loaded:  map[string]*Package{},
		byPath:  map[string]*Package{},
		modRoot: map[string]string{},
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	return l
}

// Load resolves each pattern (a directory, or a directory followed by
// "/..." for the subtree rooted there, "testdata" and hidden directories
// excluded) and returns the matched packages type-checked in dependency
// order: a package always appears after the matched packages it imports, so
// analyzer facts flow from dependencies to dependents.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			sub, err := packageDirs(rest)
			if err != nil {
				return nil, err
			}
			for _, d := range sub {
				add(d)
			}
			continue
		}
		add(pat)
	}

	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir, map[string]bool{})
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return l.sortDeps(pkgs), nil
}

// packageDirs lists the directories the pattern root/... selects: root
// and every directory below it that holds Go files, "testdata", hidden
// and underscore directories excluded.
func packageDirs(root string) ([]string, error) {
	root = filepath.Clean(root)
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			dirs = append(dirs, p)
		}
		return nil
	})
	return dirs, err
}

// hasGoFiles reports whether dir directly contains at least one .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// loadDir parses and type-checks the package in dir (memoised). loading
// guards against import cycles among loaded directories.
func (l *Loader) loadDir(dir string, loading map[string]bool) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.loaded[abs]; ok {
		return pkg, nil
	}
	if loading[abs] {
		return nil, fmt.Errorf("analysis: import cycle through %s", dir)
	}
	loading[abs] = true
	defer delete(loading, abs)

	bp, err := build.ImportDir(abs, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	importPath := l.importPathFor(abs)

	pkg := &Package{
		Path:     importPath,
		Dir:      abs,
		TestFile: map[*ast.File]bool{},
	}
	parse := func(names []string, test bool) error {
		for _, name := range names {
			f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.Files = append(pkg.Files, f)
			pkg.TestFile[f] = test
		}
		return nil
	}
	if err := parse(bp.GoFiles, false); err != nil {
		return nil, err
	}
	if err := parse(bp.TestGoFiles, true); err != nil {
		return nil, err
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("analysis: %s: no Go files", dir)
	}

	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: &chainImporter{l: l, loading: loading}}
	tpkg, err := conf.Check(importPath, l.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", dir, err)
	}
	pkg.Pkg = tpkg
	l.loaded[abs] = pkg
	l.byPath[importPath] = pkg
	return pkg, nil
}

// importPathFor derives dir's import path from the nearest enclosing
// go.mod; without one, the cleaned directory path stands in (the path is
// only an identifier for diagnostics and facts).
func (l *Loader) importPathFor(abs string) string {
	for d := abs; ; {
		if data, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			if mod := modulePath(data); mod != "" {
				l.modRoot[mod] = d
				rel, err := filepath.Rel(d, abs)
				if err == nil {
					if rel == "." {
						return mod
					}
					return mod + "/" + filepath.ToSlash(rel)
				}
			}
		}
		parent := filepath.Dir(d)
		if parent == d {
			return filepath.ToSlash(abs)
		}
		d = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// chainImporter resolves imports during type-checking: packages this Loader
// has already loaded are returned directly, packages inside a module the
// Loader has seen are loaded through the Loader itself (so every module
// package has exactly one types.Package identity — mixing this Loader's
// view of a package with the source importer's view of the same package
// makes identical types unassignable), and everything else — the standard
// library — falls through to the stdlib source importer.
type chainImporter struct {
	l       *Loader
	loading map[string]bool
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (c *chainImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := c.l.byPath[path]; ok {
		return pkg.Pkg, nil
	}
	for mod, root := range c.l.modRoot {
		if path == mod || strings.HasPrefix(path, mod+"/") {
			dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, mod)))
			pkg, err := c.l.loadDir(dir, c.loading)
			if err != nil {
				return nil, err
			}
			return pkg.Pkg, nil
		}
	}
	return c.l.std.ImportFrom(path, srcDir, mode)
}

// sortDeps orders pkgs so that every package follows the listed packages it
// imports (directly or transitively through other listed packages), which
// is the order analyzer facts must be computed in. Ties keep a stable
// path order.
func (l *Loader) sortDeps(pkgs []*Package) []*Package {
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	var out []*Package
	state := map[*Package]int{} // 0 unvisited, 1 in progress, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		// Imports of the compiled package only: test-file imports cannot
		// carry analyzer facts backwards, and following them could cycle.
		for _, f := range p.Files {
			if p.TestFile[f] {
				continue
			}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if dep, ok := byPath[path]; ok && state[dep] != 1 {
					visit(dep)
				}
			}
		}
		state[p] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
