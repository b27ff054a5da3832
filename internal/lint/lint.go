// Package lint is a stdlib-only static-analysis framework plus the
// repo-specific analyzers that machine-check this codebase's two
// load-bearing invariants: determinism (identical configs must yield
// byte-identical reports, traces and journal replays) and concurrency
// discipline in the serving layer. It is built on go/ast, go/parser and
// go/types with the source importer — no golang.org/x/tools dependency —
// and is driven by cmd/piumalint.
//
// Every analyzer has the same form: one Run hook over a Pass holding
// its target packages and the module view they close over. Run is the
// one driver: it scopes, runs, suppresses and sorts.
//
// A finding can be suppressed with a directive on (or directly above)
// the offending line:
//
//	//lint:ignore detertaint reason why this is safe
//
// The analyzer list may name several analyzers separated by commas, or
// "all". The reason is mandatory: a suppression without one is itself
// reported, whichever analyzers run.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Path     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the conventional single-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Path, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check over a set of type-checked packages.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -analyzer filters and
	// //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description for usage text.
	Doc string
	// Run inspects the pass's target packages and reports findings
	// through the pass. Package-local analyzers loop over p.Targets;
	// interprocedural ones (lockorder, gorolifetime, detertaint) walk
	// p.Module, whose call edges cross package boundaries.
	Run func(*Pass)
	// Applies scopes the analyzer during default runs: it reports
	// whether the package at the given import path is one of the
	// analyzer's targets, so only its files may carry the analyzer's
	// diagnostics. An explicit selection bypasses it. Nil means the
	// analyzer applies everywhere.
	Applies func(pkgPath, pkgName string) bool
}

// Pass is one analyzer's view of its target packages.
type Pass struct {
	// Module is the targets plus their module-internal dependency
	// closure.
	Module *Module
	// Targets are the packages under analysis, in the order Run was
	// given them. Findings outside their files are dropped by Run.
	Targets  []*Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Targets[0].Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Path:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is a parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path (synthesized for ad-hoc
	// directory loads).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Deps are the package's module-internal direct imports, sorted by
	// import path — the edges NewModule closes over.
	Deps []*Package
}

// Run analyzes pkgs, which must share one FileSet, and returns the
// findings sorted by position. With selected nil, every analyzer runs
// over the packages its Applies admits; otherwise the selected
// analyzers run over all of pkgs. Each analyzer's findings are kept
// only in its own targets' files, with //lint:ignore suppressions
// applied. Malformed directives in any of pkgs are reported once, under
// the analyzer name "directive".
func Run(pkgs []*Package, selected []*Analyzer) []Diagnostic {
	analyzers := selected
	if selected == nil {
		analyzers = All()
	}
	var dirs []directive
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ds, malformed := collectDirectives(pkg)
		dirs = append(dirs, ds...)
		diags = append(diags, malformed...)
	}
	for _, a := range analyzers {
		var targets []*Package
		targetFiles := make(map[string]bool)
		for _, pkg := range pkgs {
			if selected != nil || a.Applies == nil || a.Applies(pkg.Path, pkg.Types.Name()) {
				targets = append(targets, pkg)
				for _, f := range pkg.Files {
					targetFiles[pkg.Fset.Position(f.Pos()).Filename] = true
				}
			}
		}
		if len(targets) == 0 {
			continue
		}
		var found []Diagnostic
		a.Run(&Pass{Module: NewModule(targets...), Targets: targets, analyzer: a, diags: &found})
		for _, d := range found {
			if targetFiles[d.Path] && !suppressed(d, dirs) {
				diags = append(diags, d)
			}
		}
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders diagnostics by position, then analyzer, then
// message.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// directive is one parsed //lint:ignore comment. It suppresses matching
// diagnostics on its own line and on the line directly below it (the
// two ways such a comment attaches to code).
type directive struct {
	path      string
	line      int
	analyzers map[string]bool // nil set under key "all" means everything
}

const directivePrefix = "lint:ignore"

// collectDirectives scans every comment in the package for
// //lint:ignore directives. Malformed directives (no analyzer list or
// no reason) come back as diagnostics so they cannot silently rot.
func collectDirectives(pkg *Package) ([]directive, []Diagnostic) {
	var dirs []directive
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Path:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Analyzer: "directive",
						Message:  "malformed //lint:ignore: want \"//lint:ignore analyzer[,analyzer] reason\"",
					})
					continue
				}
				set := make(map[string]bool)
				for _, name := range strings.Split(fields[0], ",") {
					if name = strings.TrimSpace(name); name != "" {
						set[name] = true
					}
				}
				dirs = append(dirs, directive{path: pos.Filename, line: pos.Line, analyzers: set})
			}
		}
	}
	return dirs, bad
}

func suppressed(d Diagnostic, dirs []directive) bool {
	if d.Analyzer == "directive" {
		return false
	}
	for _, dir := range dirs {
		if dir.path != d.Path {
			continue
		}
		if d.Line != dir.line && d.Line != dir.line+1 {
			continue
		}
		if dir.analyzers["all"] || dir.analyzers[d.Analyzer] {
			return true
		}
	}
	return false
}

// pathWithin reports whether pkgPath contains sub as a segment-aligned
// subpath (e.g. "internal/sim" matches "piumagcn/internal/sim" and any
// package below it, but not "internal/simulator").
func pathWithin(pkgPath, sub string) bool {
	return strings.Contains("/"+pkgPath+"/", "/"+sub+"/")
}

// scopedTo builds an Applies function matching any of the given
// segment-aligned subpaths.
func scopedTo(subs ...string) func(pkgPath, pkgName string) bool {
	return func(pkgPath, pkgName string) bool {
		for _, s := range subs {
			if pathWithin(pkgPath, s) {
				return true
			}
		}
		return false
	}
}

// notMain is the Applies function for analyzers that only concern
// library code.
func notMain(pkgPath, pkgName string) bool { return pkgName != "main" }
