package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parsePkg builds a Package from source without type-checking — enough
// for the directive and sorting machinery, which is purely syntactic.
func parsePkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Package{
		Path:  "piumagcn/internal/lint/fixture",
		Fset:  fset,
		Files: []*ast.File{f},
		Types: types.NewPackage("piumagcn/internal/lint/fixture", "fixture"),
		Info:  &types.Info{},
	}
}

// reportAtLines returns an analyzer that reports one finding at the
// start of each given line.
func reportAtLines(name string, lines ...int) *Analyzer {
	return &Analyzer{
		Name: name,
		Run: func(p *Pass) {
			pkg := p.Targets[0]
			file := pkg.Fset.File(pkg.Files[0].Pos())
			for _, ln := range lines {
				p.Reportf(file.LineStart(ln), "finding on line %d", ln)
			}
		},
	}
}

func TestSuppressionCoversOwnLineAndLineBelow(t *testing.T) {
	src := `package fixture

func f() {
	_ = 1 //lint:ignore det same-line case
	//lint:ignore det line-above case
	_ = 2
	_ = 3
}
`
	pkg := parsePkg(t, src)
	diags := Run([]*Package{pkg}, []*Analyzer{reportAtLines("det", 4, 6, 7)})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (lines 4 and 6 suppressed): %v", len(diags), diags)
	}
	if diags[0].Line != 7 {
		t.Errorf("surviving diagnostic on line %d, want 7", diags[0].Line)
	}
}

func TestSuppressionMatchesAnalyzerList(t *testing.T) {
	src := `package fixture

func f() {
	//lint:ignore det,lock covers two analyzers
	_ = 1
	//lint:ignore all covers everything
	_ = 2
	//lint:ignore other wrong analyzer
	_ = 3
}
`
	pkg := parsePkg(t, src)
	diags := Run([]*Package{pkg}, []*Analyzer{
		reportAtLines("det", 5, 7, 9),
		reportAtLines("lock", 5, 7),
	})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "det" || diags[0].Line != 9 {
		t.Errorf("survivor is %s on line %d, want det on line 9", diags[0].Analyzer, diags[0].Line)
	}
}

func TestMalformedDirectiveIsReportedAndNotSuppressing(t *testing.T) {
	src := `package fixture

func f() {
	//lint:ignore det
	_ = 1
}
`
	pkg := parsePkg(t, src)
	diags := Run([]*Package{pkg}, []*Analyzer{reportAtLines("det", 5)})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (the finding plus the malformed directive): %v", len(diags), diags)
	}
	var sawDirective, sawFinding bool
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			sawDirective = true
			if !strings.Contains(d.Message, "malformed") {
				t.Errorf("directive message %q does not mention malformed", d.Message)
			}
		case "det":
			sawFinding = true
		}
	}
	if !sawDirective || !sawFinding {
		t.Errorf("want one directive and one det diagnostic, got %v", diags)
	}
}

func TestDiagnosticsSortedByPosition(t *testing.T) {
	src := `package fixture

func f() {
	_ = 1
	_ = 2
	_ = 3
}
`
	pkg := parsePkg(t, src)
	diags := Run([]*Package{pkg}, []*Analyzer{
		reportAtLines("zz", 4),
		reportAtLines("aa", 6, 4),
	})
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+":"+itoa(d.Line))
	}
	want := []string{"aa:4", "zz:4", "aa:6"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("order %v, want %v", got, want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestPathWithin(t *testing.T) {
	cases := []struct {
		pkgPath, sub string
		want         bool
	}{
		{"piumagcn/internal/sim", "internal/sim", true},
		{"piumagcn/internal/sim/trace", "internal/sim", true},
		{"piumagcn/internal/simulator", "internal/sim", false},
		{"internal/sim", "internal/sim", true},
		{"piumagcn/cmd/piumalint", "internal/sim", false},
	}
	for _, c := range cases {
		if got := pathWithin(c.pkgPath, c.sub); got != c.want {
			t.Errorf("pathWithin(%q, %q) = %v, want %v", c.pkgPath, c.sub, got, c.want)
		}
	}
}

func TestScopedToAndNotMain(t *testing.T) {
	f := scopedTo("internal/store", "internal/serve")
	if !f("piumagcn/internal/store", "store") || f("piumagcn/internal/sim", "sim") {
		t.Error("scopedTo does not match its subpath set")
	}
	if notMain("piumagcn/cmd/piumalint", "main") || !notMain("piumagcn/internal/sim", "sim") {
		t.Error("notMain misclassifies")
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("detertaint")
	if err != nil || a.Name != "detertaint" {
		t.Errorf("ByName(detertaint) = %v, %v", a, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("ByName(nonexistent) did not fail")
	}
}
