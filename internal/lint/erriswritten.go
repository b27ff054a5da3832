package lint

import (
	"go/ast"
	"go/types"
)

// ErrIsWrittenAnalyzer enforces that no write-path error is silently
// discarded in the durability layer: a journal append, WAL fsync or
// HTTP/file write whose error vanishes is silent data loss — the crash
// -recovery guarantees of internal/store are only as strong as the
// weakest checked write. It flags call statements that discard an
// error returned by a write-shaped function: fmt.Fprint* and methods
// named Write/WriteString/WriteByte/WriteRune/Flush/Sync/Append/
// Encode/Compact/Rewrite. Writes to strings.Builder and bytes.Buffer
// are exempt (they cannot fail), as is an explicit assignment to
// blank — that records the decision to ignore.
var ErrIsWrittenAnalyzer = &Analyzer{
	Name: "erriswritten",
	Doc: "forbid discarding the error of journal/WAL/io.Writer writes " +
		"in the durability and serving layers",
	Run:     runErrIsWritten,
	Applies: scopedTo("internal/store", "internal/serve"),
}

// writeMethods are the method names treated as writes. Close is
// deliberately absent: close-on-error-path cleanup is idiomatic and
// the preceding write/sync already carries the failure.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Flush": true, "Sync": true, "Append": true, "Encode": true,
	"Compact": true, "Rewrite": true,
}

func runErrIsWritten(p *Pass) {
	for _, pkg := range p.Targets {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := discardedWrite(pkg, call); ok {
					p.Reportf(call.Pos(), "%s returns an error that is discarded; a lost write is silent data loss — handle it, or assign to _ with a comment if it is genuinely best-effort", name)
				}
				return true
			})
		}
	}
}

// discardedWrite reports whether call is a write-shaped call whose
// error result the enclosing expression statement drops, returning a
// printable callee name.
func discardedWrite(pkg *Package, call *ast.CallExpr) (string, bool) {
	if !returnsError(pkg, call) {
		return "", false
	}
	if path, name, ok := pkgQualifiedCallee(pkg.Info, call); ok && path == "fmt" &&
		(name == "Fprint" || name == "Fprintf" || name == "Fprintln") {
		if len(call.Args) > 0 && infallibleWriter(pkg.Info.Types[call.Args[0]].Type) {
			return "", false
		}
		return "fmt." + name, true
	}
	recv, name, ok := methodCallee(pkg, call)
	if !ok || !writeMethods[name] {
		return "", false
	}
	if infallibleWriter(recv) {
		return "", false
	}
	return exprString(pkg.Fset, call.Fun), true
}

// returnsError reports whether the call's results include an error.
func returnsError(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

var errorInterface = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorInterface) }

// methodCallee resolves a method call to (receiver type, method name).
func methodCallee(pkg *Package, call *ast.CallExpr) (types.Type, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, "", false
	}
	return s.Recv(), sel.Sel.Name, true
}

// infallibleWriter reports whether t is a strings.Builder or
// bytes.Buffer (possibly behind a pointer) — in-memory writers used in
// this codebase for building strings that are sorted or keyed later.
func infallibleWriter(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	q := obj.Pkg().Path() + "." + obj.Name()
	return q == "strings.Builder" || q == "bytes.Buffer"
}
