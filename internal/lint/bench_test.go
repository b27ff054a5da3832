package lint

import (
	"path/filepath"
	"testing"
)

// BenchmarkInterproceduralAnalyzers times one analysis pass per
// analyzer over its fixture package (loading and type-checking happen
// once, outside the loop): the marginal cost a piumalint run pays per
// package once it is loaded.
func BenchmarkInterproceduralAnalyzers(b *testing.B) {
	l, err := NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range []*Analyzer{LockOrderAnalyzer, GoroLifetimeAnalyzer, DeterTaintAnalyzer} {
		dir := filepath.Join("testdata", "src", a.Name)
		pkg, err := l.LoadDir(dir, "piumagcn/internal/lint/"+filepath.ToSlash(dir))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if diags := Run([]*Package{pkg}, []*Analyzer{a}); len(diags) == 0 {
					b.Fatal("fixture produced no diagnostics")
				}
			}
		})
	}
}
