// Command fedlint runs the repository's static-analysis suite (package
// internal/analysis) over Go package patterns and reports every finding
// that is not excused by a //lint:ignore comment.
//
// Usage:
//
//	fedlint [-only name,name] [-strict] [-list] [patterns...]
//
// Patterns default to ./... — every package under the current directory.
// fedlint/unused-exported judges only a run that loads whole modules (./...
// from the repository root); on any other run it reports nothing.
// Exit status is 0 when the tree is clean, 1 when there are findings, and
// 2 when analysis itself failed (unparseable or untypeable code).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	strict := flag.Bool("strict", false, "also report stale //lint:ignore suppressions")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	flag.Parse()

	suite := analysis.DefaultSuite()
	suite.Strict = *strict

	if *list {
		for _, a := range suite.Analyzers {
			fmt.Printf("fedlint/%s\n    %s\n", a.Name, a.Doc)
		}
		return
	}

	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(strings.TrimPrefix(name, "fedlint/"))] = true
		}
		var selected []*analysis.Analyzer
		for _, a := range suite.Analyzers {
			if keep[a.Name] {
				selected = append(selected, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "fedlint: unknown analyzer %q (try -list)\n", name)
			os.Exit(2)
		}
		suite.Analyzers = selected
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader()
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := suite.Run(pkgs, loader.Fset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fedlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
