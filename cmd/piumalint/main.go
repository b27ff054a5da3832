// Command piumalint runs the repo's static-analysis suite
// (internal/lint) over package patterns: the lock discipline, error
// handling, context hygiene and metric label invariants that the golden
// tests and the WAL replay depend on, machine-checked at the AST/type
// level — plus the interprocedural analyzers (lockorder, gorolifetime,
// and detertaint for determinism), which see call edges across package
// boundaries.
//
// Usage:
//
//	piumalint [flags] [packages]
//
//	piumalint ./...                       # whole module, default scoping
//	piumalint -analyzer detertaint ./...  # one analyzer, every package
//	piumalint -json ./internal/sim        # machine-readable findings
//
// Patterns are "./..." walks, directory paths, or import paths inside
// the module. Without -analyzer each analyzer runs over its default
// scope (e.g. detertaint covers the simulation, codec and serving
// packages); with -analyzer the named analyzers run on every listed
// package.
// Findings can be suppressed with "//lint:ignore <analyzer> <reason>"
// on or above the offending line.
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"piumagcn/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("piumalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	analyzerFlag := fs.String("analyzer", "", "comma-separated analyzer names to run (bypasses default package scoping)")
	listFlag := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: piumalint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var selected []*lint.Analyzer
	if *analyzerFlag != "" {
		for _, name := range strings.Split(*analyzerFlag, ",") {
			a, err := lint.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			selected = append(selected, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	paths, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "piumalint: no packages matched")
		return 2
	}

	pkgs := make([]*lint.Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	diags := lint.Run(pkgs, selected)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
