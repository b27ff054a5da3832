package lint

import "fmt"

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxHygieneAnalyzer,
		DeterTaintAnalyzer,
		ErrIsWrittenAnalyzer,
		GoroLifetimeAnalyzer,
		LockDisciplineAnalyzer,
		LockOrderAnalyzer,
		MetricLabelsAnalyzer,
	}
}

// ByName resolves a comma-free analyzer name.
func ByName(name string) (*Analyzer, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("lint: unknown analyzer %q (valid: %s)", name, names())
}

func names() string {
	s := ""
	for i, a := range All() {
		if i > 0 {
			s += ", "
		}
		s += a.Name
	}
	return s
}
