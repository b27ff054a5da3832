package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The nondeterminism source model detertaint tracks: where taint
// starts (wall-clock reads, global-rand draws, map iteration), where
// map order is cleared (collect-then-sort) and kept (float
// accumulation), and which calls emit output in call order.

// seededConstructors are the math/rand entry points that build an
// explicitly seeded generator — the sanctioned way to use randomness.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

// nondetSource classifies a call as a wall-clock read
// (time.Now/Since/Until: taintClock) or a draw from the process-global
// math/rand or math/rand/v2 generator (taintRand), returning the kind
// ("" for neither) and the function's name.
func nondetSource(info *types.Info, call *ast.CallExpr) (string, string) {
	pkg, name, ok := pkgQualifiedCallee(info, call)
	switch {
	case !ok:
	case pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
		return taintClock, name
	case (pkg == "math/rand" || pkg == "math/rand/v2") && !seededConstructors[name]:
		return taintRand, name
	}
	return "", ""
}

// mapRange reports whether rng ranges over a map, whose iteration
// order differs between runs.
func mapRange(info *types.Info, rng *ast.RangeStmt) bool {
	t := info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sortedObjects returns the variables a sort.* or slices.* call names
// in its arguments (nil for any other call): collect-then-sort orders
// them, which clears map iteration order. Every entry point of the two
// packages counts.
func sortedObjects(info *types.Info, call *ast.CallExpr) []types.Object {
	pkg, _, ok := pkgQualifiedCallee(info, call)
	if !ok || (pkg != "sort" && pkg != "slices") {
		return nil
	}
	var objs []types.Object
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				objs = append(objs, info.Uses[id])
			}
			return true
		})
	}
	return objs
}

// floatAccum matches x op= v on a floating-point x: float arithmetic is
// not associative, so the order of the operands (map order, in a map
// range) reaches the result bits. Integer accumulation commutes.
func floatAccum(info *types.Info, as *ast.AssignStmt) bool {
	if as.Tok == token.ASSIGN || as.Tok == token.DEFINE || len(as.Lhs) != 1 {
		return false
	}
	t := info.TypeOf(as.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// outputCall matches the calls whose order is the order of the output
// they produce: the fmt print functions (Print, Printf, Println and
// the Fprint forms), the log ones (Print, Printf, Println), and the
// io-writer methods Write, WriteString, WriteByte and WriteRune. It
// returns the package path ("" for a method) and the name.
func outputCall(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	if pkg, name, ok := pkgQualifiedCallee(info, call); ok {
		switch {
		case (pkg == "fmt" || pkg == "log") && (name == "Print" || name == "Printf" || name == "Println"),
			pkg == "fmt" && (name == "Fprint" || name == "Fprintf" || name == "Fprintln"):
			return pkg, name, true
		}
		return "", "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	if s, ok := info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return "", sel.Sel.Name, true
	}
	return "", "", false
}
