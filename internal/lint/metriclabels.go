package lint

import (
	"go/ast"
	"go/types"
)

// MetricLabelsAnalyzer bounds label cardinality on the internal/obs
// registry. Every distinct label value materializes a series that
// lives for the life of the process, so an unbounded value (user
// input, formatted strings, error text) is a slow memory leak and an
// exposition-size explosion. A value passed to (*CounterVec)/
// (*GaugeVec)/(*HistogramVec).With must be
//
//   - a compile-time constant, or
//   - a field from the bounded vocabulary this repo defines
//     (bench.Experiment.ID — the fixed experiment registry,
//     obs.ClassStats.Class — the fixed component classes, and
//     gate.Replica.Name — the index-assigned replica names fixed at
//     registry construction), or
//   - a parameter of an unexported function whose package-local call
//     sites all pass allowed values (the wrapper-method pattern of
//     internal/serve's metrics type).
//
// Parameters of exported functions are flagged at the With call:
// callers outside the package are invisible, so the bound cannot be
// proven.
var MetricLabelsAnalyzer = &Analyzer{
	Name: "metriclabels",
	Doc: "require constant or provably bounded label values at obs registry " +
		"With() call sites (unbounded labels leak series forever)",
	Run: runMetricLabels,
	Applies: func(pkgPath, pkgName string) bool {
		// The registry itself plumbs label values internally.
		return !pathWithin(pkgPath, "internal/obs")
	},
}

// boundedFields is the sanctioned non-constant label vocabulary:
// struct fields whose value set is fixed at init time, qualified as
// "pkgname.Type.Field". gate.Replica.Name is bounded because replica
// names are assigned by index at registry construction ("b0", "b1",
// ...) and the replica set never grows after gate.New.
// gate.BreakerTransition's Backend and To fields are bounded for the
// same reasons: Backend is always a Replica.Name, and To is one of the
// three breaker state constants (closed/open/half-open).
// gate.ReconcileDecision.Action is one of the three reconcile action
// constants (terminal/keep/rehome) — the reconciler constructs
// decisions from that closed set only.
var boundedFields = map[string]bool{
	"bench.Experiment.ID":            true,
	"obs.ClassStats.Class":           true,
	"gate.Replica.Name":              true,
	"gate.BreakerTransition.Backend": true,
	"gate.BreakerTransition.To":      true,
	"gate.ReconcileDecision.Action":  true,
}

// labelTraceDepth bounds the parameter-to-call-site recursion.
const labelTraceDepth = 4

func runMetricLabels(p *Pass) {
	for _, pkg := range p.Targets {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isObsWith(pkg, call) {
					return true
				}
				for _, arg := range call.Args {
					checkLabelValue(p, pkg, arg, labelTraceDepth, make(map[types.Object]bool))
				}
				return true
			})
		}
	}
}

// isObsWith matches method calls With(...) on the obs package's
// labeled-family types.
func isObsWith(pkg *Package, call *ast.CallExpr) bool {
	recv, name, ok := methodCallee(pkg, call)
	if !ok || name != "With" {
		return false
	}
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "obs" {
		return false
	}
	switch obj.Name() {
	case "CounterVec", "GaugeVec", "HistogramVec":
		return true
	}
	return false
}

// checkLabelValue reports expr unless it is provably bounded.
func checkLabelValue(p *Pass, pkg *Package, expr ast.Expr, depth int, visiting map[types.Object]bool) {
	if depth <= 0 {
		p.Reportf(expr.Pos(), "label value %s flows through too many layers to prove bounded; pass a constant or a bounded field", exprString(pkg.Fset, expr))
		return
	}
	// Compile-time constants are always fine.
	if tv, ok := pkg.Info.Types[expr]; ok && tv.Value != nil {
		return
	}
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if q, ok := fieldQualifier(pkg, e); ok && boundedFields[q] {
			return
		}
		p.Reportf(expr.Pos(), "metric label value %s is not constant and %s is not in the bounded vocabulary; unbounded labels leak a series per distinct value", exprString(pkg.Fset, expr), fieldName(pkg, e))
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		v, ok := obj.(*types.Var)
		if !ok {
			p.Reportf(expr.Pos(), "metric label value %s is not constant; unbounded labels leak a series per distinct value", e.Name)
			return
		}
		if visiting[v] {
			return // already being proven higher up this trace
		}
		visiting[v] = true
		checkParamFlow(p, pkg, e, v, depth, visiting)
	default:
		p.Reportf(expr.Pos(), "metric label value %s is not constant; unbounded labels leak a series per distinct value", exprString(pkg.Fset, expr))
	}
}

// checkParamFlow proves a variable used as a label value: it must be a
// parameter of an unexported function whose package-local call sites
// all pass allowed values.
func checkParamFlow(p *Pass, pkg *Package, use *ast.Ident, v *types.Var, depth int, visiting map[types.Object]bool) {
	fn, idx := enclosingParam(pkg, v)
	if fn == nil {
		p.Reportf(use.Pos(), "metric label value %s is a variable, not a constant or traced parameter; unbounded labels leak a series per distinct value", v.Name())
		return
	}
	if fn.Name.IsExported() {
		p.Reportf(use.Pos(), "metric label value %s is a parameter of exported %s; callers outside the package cannot be checked — accept only constants or bounded fields", v.Name(), fn.Name.Name)
		return
	}
	fnObj := pkg.Info.Defs[fn.Name]
	callSites := 0
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || calleeObject(pkg, call) != fnObj {
				return true
			}
			callSites++
			if idx < len(call.Args) {
				checkLabelValue(p, pkg, call.Args[idx], depth-1, visiting)
			}
			return true
		})
	}
	if callSites == 0 {
		p.Reportf(use.Pos(), "metric label value %s is a parameter of %s, which has no package-local callers to bound it", v.Name(), fn.Name.Name)
	}
}

// enclosingParam finds the function declaration that declares v as a
// parameter, and the parameter's index.
func enclosingParam(pkg *Package, v *types.Var) (*ast.FuncDecl, int) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Type.Params == nil {
				continue
			}
			idx := 0
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if pkg.Info.Defs[name] == v {
						return fd, idx
					}
					idx++
				}
				if len(field.Names) == 0 {
					idx++
				}
			}
		}
	}
	return nil, 0
}

// calleeObject resolves the function object a call invokes (nil for
// indirect calls).
func calleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fun.Sel]
	}
	return nil
}

// fieldQualifier renders a selected field as "pkgname.Type.Field".
func fieldQualifier(pkg *Package, sel *ast.SelectorExpr) (string, bool) {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	recv := s.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + sel.Sel.Name, true
}

func fieldName(pkg *Package, sel *ast.SelectorExpr) string {
	if q, ok := fieldQualifier(pkg, sel); ok {
		return q
	}
	return exprString(pkg.Fset, sel)
}
