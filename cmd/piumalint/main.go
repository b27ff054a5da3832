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
//	piumalint -cache .lintcache ./...     # content-hash result cache
//
// Patterns are "./..." walks, directory paths, or import paths inside
// the module. Without -analyzer each analyzer runs over its default
// scope (e.g. detertaint covers the simulation, codec and serving
// packages); with -analyzer the named analyzers run on every listed
// package.
// Findings can be suppressed with "//lint:ignore <analyzer> <reason>"
// on or above the offending line.
//
// The -cache directory keys results by a content hash over every file
// of the analyzed package and its transitive module-internal imports,
// and by the hash of the piumalint executable itself, so a warm run
// replays byte-identical diagnostics without type-checking and a
// rebuilt analyzer never replays its predecessor's findings.
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
	cacheFlag := fs.String("cache", "", "directory for the content-hash result cache (empty disables caching)")
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

	var cache *resultCache
	if *cacheFlag != "" {
		if cache, err = newResultCache(*cacheFlag); err != nil {
			fmt.Fprintf(stderr, "piumalint: running uncached: %v\n", err)
		}
	}

	diags, code := analyze(loader, cache, paths, selected, stderr)
	if code != 0 {
		return code
	}
	lint.SortDiagnostics(diags)

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

// analyze runs the per-package analyzers over each path and the module
// analyzers over the whole target set, consulting the cache around
// every unit of work. A cache hit skips loading (and type-checking)
// entirely, which is the point: a warm CI run replays byte-identical
// results from content hashes alone.
func analyze(loader *lint.Loader, cache *resultCache, paths []string, selected []*lint.Analyzer, stderr *os.File) ([]lint.Diagnostic, int) {
	var selectedPer, selectedMod []*lint.Analyzer
	for _, a := range selected {
		if a.RunModule != nil {
			selectedMod = append(selectedMod, a)
		} else {
			selectedPer = append(selectedPer, a)
		}
	}

	var diags []lint.Diagnostic

	// Per-package analyzers.
	for _, path := range paths {
		meta, err := loader.Scan(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 2
		}
		analyzers := selectedPer
		if selected == nil {
			for _, a := range lint.Applicable(meta.Path, meta.Name) {
				if a.RunModule == nil {
					analyzers = append(analyzers, a)
				}
			}
		}
		if len(analyzers) == 0 {
			continue
		}
		closure, err := loader.ClosureHash(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 2
		}
		key := cache.key("package", analyzers, closure)
		if cached, ok := cache.get(key); ok {
			diags = append(diags, cached...)
			continue
		}
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 2
		}
		got := lint.Run(pkg, analyzers)
		cache.put(key, got)
		diags = append(diags, got...)
	}

	// Module analyzers: one whole-module view, one cache entry per
	// analyzer (a lock-order cycle can thread through packages that are
	// not targets, so the key must cover the full target closure).
	modAnalyzers := selectedMod
	if selected == nil {
		for _, a := range lint.All() {
			if a.RunModule != nil {
				modAnalyzers = append(modAnalyzers, a)
			}
		}
	}
	for _, a := range modAnalyzers {
		var targets []string
		for _, path := range paths {
			meta, err := loader.Scan(path)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return nil, 2
			}
			if selected != nil || a.Applies == nil || a.Applies(meta.Path, meta.Name) {
				targets = append(targets, path)
			}
		}
		if len(targets) == 0 {
			continue
		}
		closure, err := loader.ClosureHash(targets...)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 2
		}
		key := cache.key("module", []*lint.Analyzer{a}, closure)
		if cached, ok := cache.get(key); ok {
			diags = append(diags, cached...)
			continue
		}
		pkgs := make([]*lint.Package, 0, len(targets))
		for _, path := range targets {
			pkg, err := loader.Load(path)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return nil, 2
			}
			pkgs = append(pkgs, pkg)
		}
		got := lint.RunModule(lint.NewModule(pkgs...), pkgs, []*lint.Analyzer{a})
		cache.put(key, got)
		diags = append(diags, got...)
	}
	return diags, 0
}
