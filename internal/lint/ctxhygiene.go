package lint

import (
	"go/ast"
	"go/types"
)

// CtxHygieneAnalyzer keeps cancellation intact on request paths. The
// serving layer threads context.Context from the HTTP handler down to
// the simulator's sweep loop; a context.Background() in between
// detaches everything below it from client disconnects, shutdown
// drains and run timeouts. It reports
//
//   - context.Background() called inside a function (or a literal
//     nested in one) that has a context.Context parameter — the caller
//     handed over a context and this call throws it away;
//   - context.TODO() anywhere in library code — TODO marks unfinished
//     plumbing and must not survive review.
//
// A root construction site (a function with no ctx parameter, like a
// server constructor or main) is legitimate and not flagged for
// Background.
var CtxHygieneAnalyzer = &Analyzer{
	Name: "ctxhygiene",
	Doc: "forbid context.Background()/TODO() where a caller's context is available " +
		"(request paths must stay cancelable end to end)",
	Run:     runCtxHygiene,
	Applies: notMain,
}

func runCtxHygiene(p *Pass) {
	for _, pkg := range p.Targets {
		for _, f := range pkg.Files {
			var stack []bool // ctx-parameter availability per enclosing function
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					stack = append(stack, hasCtxParam(pkg, n.Type))
					if n.Body != nil {
						ast.Inspect(n.Body, walk)
					}
					stack = stack[:len(stack)-1]
					return false
				case *ast.FuncLit:
					stack = append(stack, hasCtxParam(pkg, n.Type))
					ast.Inspect(n.Body, walk)
					stack = stack[:len(stack)-1]
					return false
				case *ast.CallExpr:
					path, name, ok := pkgQualifiedCallee(pkg.Info, n)
					if !ok || path != "context" {
						return true
					}
					switch name {
					case "TODO":
						p.Reportf(n.Pos(), "context.TODO() marks unfinished context plumbing; pass a real context through")
					case "Background":
						if anyTrue(stack) {
							p.Reportf(n.Pos(), "context.Background() discards the caller's context; derive from the ctx parameter so cancellation and deadlines propagate")
						}
					}
				}
				return true
			}
			ast.Inspect(f, walk)
		}
	}
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// hasCtxParam reports whether the function type declares a parameter
// of type context.Context.
func hasCtxParam(pkg *Package, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pkg.Info.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
	}
	return false
}
