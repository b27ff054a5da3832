package lint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader is shared across golden tests so stdlib packages are
// source-imported once, not once per fixture.
var (
	fixtureOnce   sync.Once
	fixtureLoader *Loader
	fixtureErr    error
)

func loaderForFixtures(t *testing.T) *Loader {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureLoader, fixtureErr = NewLoader(".")
	})
	if fixtureErr != nil {
		t.Fatalf("NewLoader: %v", fixtureErr)
	}
	return fixtureLoader
}

// TestGoldenDiagnostics runs each analyzer over its fixture package in
// testdata/src/<name> and the fixture's subpackages, as
// `piumalint -analyzer <name> ./...` does there, and compares the
// rendered findings against expected.txt. The goldens are non-empty, so
// a disabled or broken analyzer fails its subtest.
//
// The determinism subtest runs detertaint over the simulation-scope
// subpackage detertaint/sim alone, as `piumalint -analyzer detertaint
// ./sim/...` does: the wall-clock, global-rand and map-order findings
// there must not depend on the rest of the module view, so they are the
// sim/ lines of detertaint's golden with the sim/ prefix stripped.
func TestGoldenDiagnostics(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", a.Name)
			checkGolden(t, a, dir, readGolden(t, dir))
		})
	}
	t.Run("determinism", func(t *testing.T) {
		var want []string
		for _, line := range readGolden(t, filepath.Join("testdata", "src", "detertaint")) {
			if strings.HasPrefix(line, "sim/") {
				want = append(want, strings.ReplaceAll(line, "sim/", ""))
			}
		}
		if len(want) == 0 {
			t.Fatal("detertaint golden has no sim/ findings")
		}
		checkGolden(t, DeterTaintAnalyzer, filepath.Join("testdata", "src", "detertaint", "sim"), want)
	})
}

// readGolden returns the lines of dir/expected.txt, failing if it is
// empty: each golden needs findings that vanish if its analyzer is
// disabled.
func readGolden(t *testing.T, dir string) []string {
	t.Helper()
	wantRaw, err := os.ReadFile(filepath.Join(dir, "expected.txt"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	want := strings.Split(strings.TrimRight(string(wantRaw), "\n"), "\n")
	if len(want) == 0 || (len(want) == 1 && want[0] == "") {
		t.Fatalf("golden %s/expected.txt is empty; each analyzer needs findings that vanish if it is disabled", dir)
	}
	return want
}

// checkGolden compares a's findings over dir against want, and requires
// a second run over the same loaded packages to render them again.
func checkGolden(t *testing.T, a *Analyzer, dir string, want []string) {
	t.Helper()
	got := fixtureFindings(t, a, dir)
	if len(got) != len(want) {
		t.Errorf("got %d findings, want %d\ngot:\n%s\nwant:\n%s",
			len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
	// Byte-identical across runs: the interprocedural analyzers
	// iterate maps internally, so a second pass over the same
	// loaded packages must render the exact same diagnostics.
	if again := fixtureFindings(t, a, dir); strings.Join(got, "\n") != strings.Join(again, "\n") {
		t.Errorf("diagnostics differ between two runs:\nfirst:\n%s\nsecond:\n%s",
			strings.Join(got, "\n"), strings.Join(again, "\n"))
	}
}

// fixtureFindings runs a over every package at or below dir and renders
// the findings with paths relative to dir.
func fixtureFindings(t *testing.T, a *Analyzer, dir string) []string {
	t.Helper()
	l := loaderForFixtures(t)
	paths, err := l.ExpandPatterns([]string{dir + "/..."})
	if err != nil {
		t.Fatalf("ExpandPatterns(%s): %v", dir, err)
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags := Run(pkgs, []*Analyzer{a})
	absDir, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("Abs(%s): %v", dir, err)
	}
	// Positions, both the diagnostic's own and any embedded in messages,
	// carry the fixture dir: absolute for packages the module loader
	// reached, relative for ones another test loaded by directory.
	rel := func(s string) string {
		s = strings.ReplaceAll(s, absDir+string(filepath.Separator), "")
		return strings.ReplaceAll(s, dir+string(filepath.Separator), "")
	}
	for i := range diags {
		diags[i].Path, diags[i].Message = rel(diags[i].Path), rel(diags[i].Message)
	}
	sortDiagnostics(diags)
	got := make([]string, len(diags))
	for i, d := range diags {
		got[i] = d.String()
	}
	return got
}

// TestFixturesCoverEveryAnalyzer pins the fixture tree to the analyzer
// registry: a new analyzer without a fixture (or a stray fixture dir)
// fails here.
func TestFixturesCoverEveryAnalyzer(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("reading testdata/src: %v", err)
	}
	have := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() {
			have[e.Name()] = true
		}
	}
	for _, a := range All() {
		if !have[a.Name] {
			t.Errorf("analyzer %s has no fixture package under testdata/src", a.Name)
		}
		delete(have, a.Name)
	}
	for name := range have {
		t.Errorf("fixture dir %s matches no registered analyzer", name)
	}
}
