package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// DeterminismAnalyzer enforces the reproducibility contract of the
// simulation and codec packages: identical options must produce
// byte-identical reports, traces and journals. It reports each source
// of the nondeterminism model detertaint tracks where it occurs:
//
//   - wall-clock reads (time.Now/Since/Until) — simulated time is the
//     only clock those packages may consult;
//   - calls to the process-global math/rand (and math/rand/v2)
//     generators — all randomness must flow from a seeded rand.New so
//     a run is a pure function of its options;
//   - map iteration whose order leaks into output: appending map keys
//     or values to a slice that is never sorted afterwards, writing or
//     printing inside the loop, or accumulating floating-point sums
//     (float addition is not associative, so map order changes the
//     result bits).
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand and order-sensitive map iteration " +
		"in the simulation, codec and journal packages",
	Run: runDeterminism,
	Applies: scopedTo("internal/sim", "internal/piuma", "internal/spmm",
		"internal/faults", "internal/bench", "internal/store"),
}

func runDeterminism(p *Pass) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Function literals are walked as part of their enclosing
			// declaration.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					switch kind, name := nondetSource(p.Info, n); kind {
					case taintClock:
						p.Reportf(n.Pos(), "time.%s reads the wall clock; simulation and codec code must be a pure function of its inputs (thread timestamps in explicitly)", name)
					case taintRand:
						p.Reportf(n.Pos(), "global rand.%s is seeded process-wide; use a local generator from rand.New so the result is reproducible from the run's seed", name)
					}
				case *ast.RangeStmt:
					if mapRange(p.Info, n) {
						checkMapRange(p, fd.Body, n)
					}
				}
				return true
			})
		}
	}
}

// checkMapRange flags order-sensitive sinks inside a range over a map.
func checkMapRange(p *Pass, enclosing *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(p, enclosing, rng, n)
		case *ast.CallExpr:
			if pkg, name, ok := outputCall(p.Info, n); ok && pkg != "" {
				p.Reportf(n.Pos(), "%s.%s inside map iteration emits output in map order, which differs between runs; iterate sorted keys instead", pkg, name)
			} else if ok {
				p.Reportf(n.Pos(), "%s inside map iteration writes in map order, which differs between runs; iterate sorted keys instead", name)
			}
		}
		return true
	})
}

// checkMapRangeAssign handles the two order-sensitive assignment
// shapes: append-to-outer-slice (unless the slice is sorted after the
// loop) and floating-point op-assign accumulation.
func checkMapRangeAssign(p *Pass, enclosing *ast.BlockStmt, rng *ast.RangeStmt, as *ast.AssignStmt) {
	// x op= v with a float target declared outside the loop.
	if floatAccum(p.Info, as) {
		if obj := outerObject(p, as.Lhs[0], rng); obj != nil {
			p.Reportf(as.Pos(), "floating-point accumulation of %s in map iteration order is not associative and changes result bits between runs; accumulate over sorted keys", obj.Name())
		}
		return
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	// x = append(x, ...) with x declared outside the loop.
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(p, call) || i >= len(as.Lhs) {
			continue
		}
		obj := outerObject(p, as.Lhs[i], rng)
		if obj == nil {
			continue
		}
		if sortedAfter(p, enclosing, rng, obj) {
			continue
		}
		p.Reportf(as.Pos(), "%s accumulates map keys/values in map iteration order and is never sorted afterwards; sort it (or iterate sorted keys) before it feeds output", obj.Name())
	}
}

// outerObject resolves expr to a variable declared outside the range
// statement (nil otherwise).
func outerObject(p *Pass, expr ast.Expr, rng *ast.RangeStmt) types.Object {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil || obj.Pos() == token.NoPos {
		return nil
	}
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return nil
	}
	return obj
}

func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether a call after the range statement within
// the enclosing function body sorts obj — the canonical
// collect-then-sort pattern.
func sortedAfter(p *Pass, enclosing *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() >= rng.End() && slices.Contains(sortedObjects(p.Info, call), obj) {
			found = true
		}
		return !found
	})
	return found
}

// The nondeterminism source model. determinism reports these shapes
// where they occur; detertaint starts taint at the sources, clears
// map order where it is sorted away, and keeps it through float
// accumulation.

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
