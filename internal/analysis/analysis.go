// Package analysis is the repository's stdlib-only static-analysis
// framework (go/ast + go/types, no third-party dependencies) behind the
// cmd/fedlint driver. It generalises the retired internal/doclint walker
// into a multi-analyzer suite with a shared package loader, per-analyzer
// fact passing across packages (dependencies are analyzed first), position-
// accurate diagnostics, and //lint:ignore suppression.
//
// Each Analyzer encodes one of the repository's load-bearing contracts at
// the source level, front-running the runtime test that would otherwise
// catch a violation one seed at a time: determinism of the fold/commit
// paths, fingerprint completeness, wire-format test exhaustiveness, atomic
// and mutex hygiene, godoc coverage, and exported code only tests use. See
// docs/ARCHITECTURE.md, "Static guarantees".
//
// Diagnostics are suppressed by a comment on the flagged line or the line
// directly above it:
//
//	//lint:ignore fedlint/<name> <reason>
//
// The reason is mandatory — a bare suppression is itself a diagnostic —
// and under Suite.Strict a suppression that no longer matches any
// diagnostic is reported as stale, so suppressions cannot outlive the code
// they excused.
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer checks one invariant over one package at a time. Analyzers
// are self-activating: Run inspects the package for the shapes it governs
// (an Aggregator interface, a Fingerprint method, a Kind type…) and stays
// silent on packages without them, so the suite can sweep a whole module.
type Analyzer struct {
	// Name is the analyzer's identifier; diagnostics print and suppress as
	// "fedlint/<Name>".
	Name string
	// Doc is a one-paragraph description for the driver's -list output.
	Doc string
	// Run analyzes one package, reporting through pass.Reportf and
	// exchanging facts through pass.ExportFact/ImportFact. It may be nil.
	Run func(pass *Pass) error
	// Finish, if set, runs once after every package has been visited,
	// with pass.Package nil and every package of the run: for findings a
	// later package can clear, such as a use in a dependent. It returns
	// errPartialRun when the run loaded too little to judge; the analyzer
	// then counts as not run, so its suppressions are not judged stale.
	Finish func(pass *Pass, pkgs []*Package) error
}

// errPartialRun is Finish's verdict on a run it cannot judge.
var errPartialRun = errors.New("analysis: partial run")

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	// Pos is the resolved file:line:column of the finding.
	Pos token.Position
	// Analyzer is the reporting analyzer's Name ("ignore" for findings
	// about the suppression comments themselves).
	Analyzer string
	// Message is the human-readable finding.
	Message string
}

// String formats the diagnostic the way the driver prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: fedlint/%s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package: the loaded syntax and
// type information plus the suite's fact store and diagnostic sink.
type Pass struct {
	// Analyzer is the analyzer this pass runs.
	Analyzer *Analyzer
	// Fset resolves token.Pos values for every file in the run.
	Fset *token.FileSet
	// Package is the package under analysis.
	Package *Package

	suite *Suite
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.suite.diags = append(p.suite.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportAt records a diagnostic at an already-resolved position (facts
// store resolved positions because they outlive their pass).
func (p *Pass) reportAt(pos token.Position, format string, args ...any) {
	p.suite.diags = append(p.suite.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportFact publishes a fact about obj under this analyzer's namespace.
// Facts are keyed by the object's fully qualified name, not object
// identity, so a later pass over a dependent package can look the fact up
// through its own view of the imported object.
func (p *Pass) ExportFact(obj fullNamer, fact any) {
	key := p.Analyzer.Name + "\x00" + factKey(obj)
	p.suite.facts[key] = fact
}

// ImportFact retrieves the fact this analyzer exported about obj from any
// earlier pass (including over a dependency package), or nil, false.
func (p *Pass) ImportFact(obj fullNamer) (any, bool) {
	fact, ok := p.suite.facts[p.Analyzer.Name+"\x00"+factKey(obj)]
	return fact, ok
}

// fullNamer is the subset of types.Object fact keys need; *types.Func
// additionally provides FullName, which qualifies methods by receiver.
type fullNamer interface {
	Name() string
	String() string
}

// factKey builds the cross-package identity of an object. types.Func's
// FullName already qualifies package and receiver; for anything else the
// object's String form (which embeds the package path) serves.
func factKey(obj fullNamer) string {
	type fullNameObj interface{ FullName() string }
	if f, ok := obj.(fullNameObj); ok {
		return f.FullName()
	}
	return obj.String()
}

// A Suite is a configured set of analyzers run together over loaded
// packages, sharing one fact store and one suppression table.
type Suite struct {
	// Analyzers run in order over each package; packages are visited in
	// the loader's dependency order so facts flow forward.
	Analyzers []*Analyzer
	// Scope restricts an analyzer (by Name) to packages whose import path
	// matches one of the listed suffixes; analyzers without an entry run
	// everywhere. Self-activating analyzers rarely need scoping, but godoc
	// coverage is a policy choice per package, not a shape in the code.
	Scope map[string][]string
	// Strict additionally reports suppressions that matched no diagnostic
	// (stale //lint:ignore comments) for analyzers that ran.
	Strict bool

	facts   map[string]any
	diags   []Diagnostic
	partial map[string]bool // analyzers whose Finish returned errPartialRun
}

// Run executes every analyzer over every package and returns the surviving
// diagnostics: findings matched by a valid //lint:ignore comment are
// dropped, malformed or (under Strict) stale suppressions are added under
// the "ignore" pseudo-analyzer. Diagnostics come back sorted by position.
func (s *Suite) Run(pkgs []*Package, fset *token.FileSet) ([]Diagnostic, error) {
	s.facts = map[string]any{}
	s.diags = nil
	s.partial = map[string]bool{}
	for _, pkg := range pkgs {
		for _, a := range s.Analyzers {
			if a.Run == nil || !s.inScope(a.Name, pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: fset, Package: pkg, suite: s}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range s.Analyzers {
		if a.Finish == nil {
			continue
		}
		err := a.Finish(&Pass{Analyzer: a, Fset: fset, suite: s}, pkgs)
		if errors.Is(err, errPartialRun) {
			s.partial[a.Name] = true
		} else if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
	}
	sups := collectSuppressions(pkgs, fset)
	kept := s.applySuppressions(sups, fset)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return kept[i].Message < kept[j].Message
	})
	return kept, nil
}

// inScope reports whether analyzer name runs over the package at path.
func (s *Suite) inScope(name, path string) bool {
	pats, ok := s.Scope[name]
	if !ok {
		return true
	}
	for _, pat := range pats {
		if path == pat || strings.HasSuffix(path, "/"+pat) {
			return true
		}
	}
	return false
}

// ran reports whether the suite includes an analyzer by that name and it
// judged the run.
func (s *Suite) ran(name string) bool {
	for _, a := range s.Analyzers {
		if a.Name == name {
			return !s.partial[name]
		}
	}
	return false
}

// A suppression is one parsed //lint:ignore comment.
type suppression struct {
	pos       token.Position
	analyzers []string // names without the fedlint/ prefix
	reason    string
	used      bool
	malformed string // non-empty: why the comment itself is a diagnostic
}

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "lint:ignore"

// collectSuppressions parses every //lint:ignore comment in every file.
// The expected form is "//lint:ignore fedlint/<name>[,fedlint/<name>…]
// <reason>"; departures are recorded as malformed so Run can report them.
func collectSuppressions(pkgs []*Package, fset *token.FileSet) []*suppression {
	var sups []*suppression
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//"+ignorePrefix)
					if !ok {
						continue
					}
					sup := &suppression{pos: fset.Position(c.Pos())}
					fields := strings.Fields(text)
					if len(fields) == 0 {
						sup.malformed = "lint:ignore needs an analyzer name and a reason"
					} else {
						for _, name := range strings.Split(fields[0], ",") {
							bare, ok := strings.CutPrefix(name, "fedlint/")
							if !ok || bare == "" {
								sup.malformed = fmt.Sprintf("lint:ignore target %q is not of the form fedlint/<analyzer>", name)
								break
							}
							sup.analyzers = append(sup.analyzers, bare)
						}
						sup.reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), fields[0]))
						if sup.malformed == "" && sup.reason == "" {
							sup.malformed = "lint:ignore needs a reason after the analyzer name"
						}
					}
					sups = append(sups, sup)
				}
			}
		}
	}
	return sups
}

// applySuppressions drops diagnostics matched by a well-formed suppression
// on the same line or the line directly above, and appends "ignore"
// diagnostics for malformed and (under Strict) stale suppressions.
func (s *Suite) applySuppressions(sups []*suppression, fset *token.FileSet) []Diagnostic {
	var kept []Diagnostic
	for _, d := range s.diags {
		suppressed := false
		for _, sup := range sups {
			if sup.malformed != "" || sup.pos.Filename != d.Pos.Filename {
				continue
			}
			if d.Pos.Line != sup.pos.Line && d.Pos.Line != sup.pos.Line+1 {
				continue
			}
			for _, name := range sup.analyzers {
				if name == d.Analyzer {
					sup.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, sup := range sups {
		if sup.malformed != "" {
			kept = append(kept, Diagnostic{Pos: sup.pos, Analyzer: "ignore", Message: sup.malformed})
			continue
		}
		if s.Strict && !sup.used && s.anyRan(sup.analyzers) {
			kept = append(kept, Diagnostic{Pos: sup.pos, Analyzer: "ignore",
				Message: fmt.Sprintf("stale lint:ignore: no fedlint/%s diagnostic here to suppress", strings.Join(sup.analyzers, ","))})
		}
	}
	return kept
}

// anyRan reports whether at least one of the named analyzers is part of
// this suite — a suppression for an analyzer that did not run cannot be
// judged stale.
func (s *Suite) anyRan(names []string) bool {
	for _, n := range names {
		if s.ran(n) {
			return true
		}
	}
	return false
}

// nonTestFiles returns the package's compiled (non-test) files.
func nonTestFiles(pkg *Package) []*ast.File {
	var out []*ast.File
	for _, f := range pkg.Files {
		if !pkg.TestFile[f] {
			out = append(out, f)
		}
	}
	return out
}
