package analysis

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// UnusedExported flags an exported package-level func, type, var or const,
// or an exported method, of a non-main package that nothing references
// outside that package's own test files. Every other use counts: the
// package's own code, other packages and their tests, commands, examples
// and nested modules such as benchmark/, matched by factKey so a nested
// module's view of a package matches the package's own. A receiver naming
// its own type is not a use of the type. A method is exempt when its
// receiver type satisfies an interface that declares it (an nn layer's
// Forward, a Strategy hook, fmt.Stringer's String): dynamic dispatch
// reaches it without naming it.
//
// Uses come from dependents, so the check runs in Finish, and only on a
// run that loaded every package of each module it judges: fedlint
// ./internal/tensor reports nothing and holds no suppression stale.
// External _test packages are not loaded; their references do not count.
var UnusedExported = &Analyzer{
	Name: "unused-exported",
	Doc: "exported identifiers of non-main packages must be referenced " +
		"somewhere other than their own package's tests",
	Finish: runUnusedExported,
}

func runUnusedExported(pass *Pass, pkgs []*Package) error {
	if err := wholeModules(pkgs); err != nil {
		return err
	}
	used := dispatched(pkgs)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ownTest := pkg.TestFile[f]
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl: // skip the receiver
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.Ident:
					obj := pkg.Info.Uses[n]
					if f, ok := obj.(*types.Func); ok {
						obj = f.Origin()
					}
					if obj != nil && obj.Pkg() != nil && !(ownTest && obj.Pkg().Path() == pkg.Path) {
						used[factKey(obj)] = true
					}
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}
	for _, pkg := range pkgs {
		if pkg.Pkg.Name() == "main" {
			continue
		}
		for id, obj := range pkg.Info.Defs {
			if obj == nil || !id.IsExported() || used[factKey(obj)] ||
				strings.HasSuffix(pass.Fset.Position(id.Pos()).Filename, "_test.go") {
				continue
			}
			fn, ok := obj.(*types.Func)
			method := ok && fn.Signature().Recv() != nil && !types.IsInterface(fn.Signature().Recv().Type())
			if method || obj.Parent() == pkg.Pkg.Scope() {
				pass.Reportf(id.Pos(), "exported %s is referenced nowhere outside its package's tests", obj.Name())
			}
		}
	}
	return nil
}

// dispatched returns, by factKey, every method through which a
// package-level named type of the run, or a pointer to it, satisfies an
// interface that declares the method, promoted methods included. The
// interfaces are the package-level ones of the run and of its imports.
func dispatched(pkgs []*Package) map[string]bool {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var index func(p *types.Package)
	index = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			n, ok := p.Scope().Lookup(name).Type().(*types.Named)
			it, isIface := p.Scope().Lookup(name).Type().Underlying().(*types.Interface)
			if ok && isIface && n.TypeParams().Len() == 0 && it.IsMethodSet() {
				for i := range it.NumMethods() {
					byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
				}
			}
		}
		for _, imp := range p.Imports() {
			index(imp)
		}
	}
	for _, pkg := range pkgs {
		index(pkg.Pkg)
	}
	out := map[string]bool{}
	for _, pkg := range pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, isType := scope.Lookup(name).(*types.TypeName)
			if !isType {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(n)
			ms := types.NewMethodSet(ptr)
			for i := range ms.Len() {
				m := ms.At(i).Obj()
				for _, it := range byMethod[m.Name()] {
					if types.Implements(ptr, it) {
						out[factKey(m)] = true
						break
					}
				}
			}
		}
	}
	return out
}

// wholeModules returns errPartialRun unless pkgs holds every package
// directory of each module (nearest go.mod) that one of them belongs to.
func wholeModules(pkgs []*Package) error {
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.Dir] = true
	}
	for _, p := range pkgs {
		root := p.Dir
		for {
			if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
				break
			}
			if filepath.Dir(root) == root {
				return errPartialRun
			}
			root = filepath.Dir(root)
		}
		dirs, err := packageDirs(root)
		if err != nil {
			return err
		}
		for _, d := range dirs {
			if !loaded[d] {
				return errPartialRun
			}
		}
	}
	return nil
}
