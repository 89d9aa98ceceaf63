package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// corpusCases maps each golden corpus under testdata/src to the analyzers
// it exercises. Expectations live in the corpus sources as trailing
// comments: // want "substr" ["substr"...] expects diagnostics on its own
// line, and // want-above "substr" expects one on the line directly above
// (for diagnostics that point at comments, which cannot carry a trailing
// marker of their own).
var corpusCases = []struct {
	corpus    string
	analyzers []*Analyzer
	strict    bool
}{
	{"determinism", []*Analyzer{Determinism}, false},
	{"fingerprint", []*Analyzer{FingerprintComplete}, false},
	{"wire", []*Analyzer{WireExhaustive}, false},
	{"atomic", []*Analyzer{AtomicHygiene}, false},
	{"godoc", []*Analyzer{ExportedGodoc}, false},
	{"suppress", []*Analyzer{AtomicHygiene}, true},
	{"unusedexported", []*Analyzer{UnusedExported}, true},
}

func TestCorpora(t *testing.T) {
	for _, tc := range corpusCases {
		t.Run(tc.corpus, func(t *testing.T) {
			runCorpus(t, tc.corpus, tc.analyzers, tc.strict)
		})
	}
}

// TestUnusedExportedPartialRun: a run that loads only part of a module
// cannot see every use, so unused-exported reports nothing from it.
func TestUnusedExportedPartialRun(t *testing.T) {
	loader := NewLoader()
	pkgs, err := loader.Load(filepath.Join("testdata", "src", "unusedexported", "lib"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := (&Suite{Analyzers: []*Analyzer{UnusedExported}, Strict: true}).Run(pkgs, loader.Fset)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("partial run reported %s", d)
	}
}

// wantRe matches a want marker and captures the above flag and the quoted
// substrings.
var wantRe = regexp.MustCompile(`^//\s*want(-above)?((?:\s+"[^"]*")+)\s*$`)

// quotedRe extracts the individual quoted substrings.
var quotedRe = regexp.MustCompile(`"([^"]*)"`)

// expectation is one unmet // want substring at a file:line.
type expectation struct {
	substr string
	met    bool
}

func runCorpus(t *testing.T, corpus string, analyzers []*Analyzer, strict bool) {
	t.Helper()
	dir := filepath.Join("testdata", "src", corpus)
	loader := NewLoader()
	pkgs, err := loader.Load(filepath.Join(dir, "..."))
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	suite := &Suite{Analyzers: analyzers, Strict: strict}
	diags, err := suite.Run(pkgs, loader.Fset)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}

	// Gather expectations from every comment in the corpus.
	type key struct {
		file string
		line int
	}
	wants := map[key][]*expectation{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := loader.Fset.Position(c.Pos())
					line := pos.Line
					if m[1] == "-above" {
						line--
					}
					for _, q := range quotedRe.FindAllStringSubmatch(m[2], -1) {
						wants[key{pos.Filename, line}] = append(wants[key{pos.Filename, line}], &expectation{substr: q[1]})
					}
				}
			}
		}
	}

	// Every diagnostic must meet a want; every want must be met.
	for _, d := range diags {
		matched := false
		for _, exp := range wants[key{d.Pos.Filename, d.Pos.Line}] {
			if !exp.met && strings.Contains(d.Message, exp.substr) {
				exp.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, exps := range wants {
		for _, exp := range exps {
			if !exp.met {
				t.Errorf("%s:%d: expected a diagnostic containing %q, got none", k.file, k.line, exp.substr)
			}
		}
	}
}
