package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadLockorderFixture loads the lockorder fixture (which imports its
// sub package) through the shared fixture loader.
func loadLockorderFixture(t *testing.T) *Package {
	t.Helper()
	l := loaderForFixtures(t)
	dir := filepath.Join("testdata", "src", "lockorder")
	pkg, err := l.LoadDir(dir, "piumagcn/internal/lint/"+filepath.ToSlash(dir))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

// TestModuleClosureIncludesDeps checks that NewModule pulls in the
// transitive module-internal imports of its roots.
func TestModuleClosureIncludesDeps(t *testing.T) {
	pkg := loadLockorderFixture(t)
	m := NewModule(pkg)
	var paths []string
	for _, p := range m.Packages {
		paths = append(paths, p.Path)
	}
	want := []string{
		"piumagcn/internal/lint/testdata/src/lockorder",
		"piumagcn/internal/lint/testdata/src/lockorder/sub",
	}
	if strings.Join(paths, " ") != strings.Join(want, " ") {
		t.Fatalf("module packages = %v, want %v", paths, want)
	}
}

// TestCallEdgesCrossPackage checks that the call graph resolves a
// method call into another package of the module — the edge the
// lockorder witness chain walks.
func TestCallEdgesCrossPackage(t *testing.T) {
	pkg := loadLockorderFixture(t)
	m := NewModule(pkg)
	found := false
	for _, e := range m.CallEdges() {
		if funcDisplay(e.Caller) == "lockorder.Coordinator.Flush" &&
			funcDisplay(e.Callee) == "sub.Registry.Absorb" {
			found = true
			if e.Caller.Pkg.Path == e.Callee.Pkg.Path {
				t.Error("cross-package edge attributed to a single package")
			}
		}
	}
	if !found {
		var edges []string
		for _, e := range m.CallEdges() {
			edges = append(edges, funcDisplay(e.Caller)+" -> "+funcDisplay(e.Callee))
		}
		t.Fatalf("no edge lockorder.Coordinator.Flush -> sub.Registry.Absorb; have:\n%s",
			strings.Join(edges, "\n"))
	}
}

// TestCallEdgesDeterministic pins the enumeration order: two walks of
// the same module must agree (the analyzers' fixpoints seed from it).
func TestCallEdgesDeterministic(t *testing.T) {
	pkg := loadLockorderFixture(t)
	m := NewModule(pkg)
	render := func() string {
		var b strings.Builder
		for _, e := range m.CallEdges() {
			b.WriteString(funcDisplay(e.Caller))
			b.WriteString(" -> ")
			b.WriteString(funcDisplay(e.Callee))
			b.WriteString("\n")
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("call edge order differs between walks:\n%s\nvs\n%s", a, b)
	}
}

// TestRunFiltersToTargets checks that an analyzer's diagnostics are
// kept only when they anchor in one of its targets, even though its
// module view sees the whole dependency closure: an analyzer reporting
// at every function of the lockorder fixture's module keeps only the
// root package's findings when the root is the only target.
func TestRunFiltersToTargets(t *testing.T) {
	pkg := loadLockorderFixture(t)
	everyFunc := &Analyzer{
		Name: "everyfunc",
		Run: func(p *Pass) {
			for _, fi := range p.Module.Funcs() {
				p.Reportf(fi.Decl.Pos(), "%s", funcDisplay(fi))
			}
		},
	}
	diags := Run([]*Package{pkg}, []*Analyzer{everyFunc})
	if len(diags) == 0 {
		t.Fatal("targeting the root fixture reported nothing")
	}
	rootDir := filepath.Dir(pkg.Fset.Position(pkg.Files[0].Pos()).Filename)
	for _, d := range diags {
		if filepath.Dir(d.Path) != rootDir {
			t.Errorf("diagnostic anchored outside the target package: %v", d)
		}
	}
	if len(diags) == len(NewModule(pkg).Funcs()) {
		t.Fatal("the module view holds no function outside the target, so nothing was filtered")
	}
}

// writeTempModule lays out a throwaway module on disk and returns its
// root. files maps module-relative paths to contents.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.24\n"
	for rel, content := range files {
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestModuleAnalyzerSuppression checks //lint:ignore handling for the
// interprocedural analyzers: the directive on the line above the
// launch suppresses gorolifetime there, and only there.
func TestModuleAnalyzerSuppression(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"leak/leak.go": `package leak

func spin() {
	for {
	}
}

func launch() {
	go spin()
	//lint:ignore gorolifetime suppressed on purpose for this test
	go spin()
}
`,
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("tmpmod/leak")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{GoroLifetimeAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the unsuppressed launch: %v", len(diags), diags)
	}
	if diags[0].Line != 9 {
		t.Errorf("diagnostic at line %d, want line 9 (the unsuppressed go statement)", diags[0].Line)
	}
}
