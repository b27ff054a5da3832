package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of the enclosing module using
// only the standard library: module-internal imports are resolved by
// the loader itself (so every package is checked exactly once and its
// syntax stays available for analysis), everything else goes through
// the stdlib source importer. A Loader is not safe for concurrent use.
type Loader struct {
	Fset       *token.FileSet
	ModuleDir  string
	ModulePath string

	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader finds the module root at or above dir (by locating go.mod)
// and returns a loader rooted there.
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
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		ModuleDir:  root,
		ModulePath: modPath,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load parses and type-checks the module-internal package with the
// given import path (or returns the cached result).
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	rel, ok := l.moduleRel(importPath)
	if !ok {
		return nil, fmt.Errorf("lint: %s is not inside module %s", importPath, l.ModulePath)
	}
	return l.LoadDir(filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), importPath)
}

// LoadDir parses and type-checks the package in dir under the given
// import path. Test files (_test.go) are excluded: the analyzers check
// shipping code.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		const keep = 5
		if len(typeErrs) > keep {
			typeErrs = append(typeErrs[:keep], fmt.Errorf("... and %d more", len(typeErrs)-keep))
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n%w", importPath, errors.Join(typeErrs...))
	}
	p := &Package{Path: importPath, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	// Module-internal imports were loaded through this loader during
	// Check, so they are in l.pkgs now; record them as dep edges for
	// NewModule's closure.
	depSet := make(map[string]bool)
	for _, f := range files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if dep, ok := l.pkgs[path]; ok && !depSet[path] {
				depSet[path] = true
				p.Deps = append(p.Deps, dep)
			}
		}
	}
	sort.Slice(p.Deps, func(i, j int) bool { return p.Deps[i].Path < p.Deps[j].Path })
	l.pkgs[importPath] = p
	return p, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal packages
// load through the loader (and become analyzable), everything else is
// delegated to the stdlib source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.moduleRel(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// moduleRel maps a module-internal import path to its module-relative
// directory ("" for the module root package).
func (l *Loader) moduleRel(importPath string) (string, bool) {
	if importPath == l.ModulePath {
		return "", true
	}
	return strings.CutPrefix(importPath, l.ModulePath+"/")
}

// goFilesIn lists the buildable, non-test Go files in dir, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ExpandPatterns resolves command-line package patterns into import
// paths, sorted and deduplicated. Supported forms: "./..." (or
// "dir/...") walks for packages, a directory path loads that
// directory, and anything else is taken as an import path inside the
// module. Directories named testdata or vendor, and hidden or
// underscore-prefixed directories, are skipped by walks.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "..."):
			base := strings.TrimSuffix(pat, "...")
			base = strings.TrimSuffix(base, "/")
			if base == "" || base == "." {
				base = "."
			}
			paths, err := l.walk(base)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case pat == "." || strings.ContainsAny(pat, "/\\") && isDir(pat):
			p, err := l.dirImportPath(pat)
			if err != nil {
				return nil, err
			}
			add(p)
		default:
			add(pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

func isDir(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}

// dirImportPath synthesizes the import path for a directory inside the
// module.
func (l *Loader) dirImportPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleDir)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// walk finds every package directory at or below base.
func (l *Loader) walk(base string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			p, err := l.dirImportPath(path)
			if err != nil {
				return err
			}
			out = append(out, p)
		}
		return nil
	})
	return out, err
}
