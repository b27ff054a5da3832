package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// Module is the whole-program view the interprocedural analyzers run
// over: a set of packages (closed under module-internal imports) plus
// an index from function objects to their declarations. Dynamic
// dispatch is deliberately unresolved — a call through an interface or
// a func value has no static callee here. That asymmetry is load-
// bearing for detertaint: the injected-Clock pattern routes wall time
// through an interface, so clock.Now() is opaque (clean) while a direct
// time.Now() is a taint source.
type Module struct {
	// Packages is the transitive closure of the constructor's arguments
	// over Package.Deps, sorted by import path.
	Packages []*Package

	funcs map[*types.Func]*FuncInfo
	order []*FuncInfo
}

// FuncInfo is one declared function or method with a body.
type FuncInfo struct {
	// Obj is the function's type object.
	Obj *types.Func
	// Decl is its declaration (Body is never nil).
	Decl *ast.FuncDecl
	// Pkg is the declaring package (whose Info resolves identifiers in
	// the body).
	Pkg *Package
}

// NewModule builds the module view over pkgs and everything they
// (transitively) depend on inside the module.
func NewModule(pkgs ...*Package) *Module {
	closure := make(map[string]*Package)
	var visit func(*Package)
	visit = func(p *Package) {
		if p == nil || closure[p.Path] != nil {
			return
		}
		closure[p.Path] = p
		for _, d := range p.Deps {
			visit(d)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	paths := make([]string, 0, len(closure))
	for path := range closure {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	m := &Module{funcs: make(map[*types.Func]*FuncInfo)}
	for _, path := range paths {
		pkg := closure[path]
		m.Packages = append(m.Packages, pkg)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: fn, Decl: fd, Pkg: pkg}
				m.funcs[fn] = fi
				m.order = append(m.order, fi)
			}
		}
	}
	return m
}

// Funcs lists every declared function in deterministic order: packages
// by import path, then file order, then declaration order.
func (m *Module) Funcs() []*FuncInfo { return m.order }

// FuncInfo resolves a function object to its module declaration (nil
// for stdlib functions, interface methods and functions without
// bodies). Generic instantiations resolve to their origin declaration.
func (m *Module) FuncInfo(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	if fi := m.funcs[fn]; fi != nil {
		return fi
	}
	return m.funcs[fn.Origin()]
}

// Package resolves an import path within the module view.
func (m *Module) Package(path string) *Package {
	for _, p := range m.Packages {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// StaticCallee resolves the function a call statically invokes: a
// package-level function, a concrete method, or a qualified import.
// Interface-method calls resolve to the interface's method object
// (which has no module declaration), func-value and builtin calls to
// nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // field access producing a func value
			}
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // qualified pkg.Fn
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// pkgQualifiedCallee resolves a call of the form pkg.Fn to (package
// path, function name).
func pkgQualifiedCallee(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// derefNamed unwraps a pointer (and alias) to the named type behind it,
// nil if t is not (a pointer to) a named type.
func derefNamed(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// funcDisplay renders a function for diagnostics: pkg.Fn or pkg.Type.Method.
func funcDisplay(fi *FuncInfo) string {
	pkg := fi.Pkg.Types.Name()
	if recv := fi.Obj.Signature().Recv(); recv != nil {
		if named := derefNamed(recv.Type()); named != nil {
			return pkg + "." + named.Obj().Name() + "." + fi.Obj.Name()
		}
	}
	return pkg + "." + fi.Obj.Name()
}

// CallEdge is one static call from a declared function to another
// function declared in the module.
type CallEdge struct {
	Caller *FuncInfo
	Callee *FuncInfo
	Site   *ast.CallExpr
}

// CallEdges enumerates every resolved module-internal call edge in
// deterministic order (caller order, then source order within each
// body). Calls inside nested function literals are attributed to the
// enclosing declaration; calls whose callee is outside the module or
// dynamic are omitted.
func (m *Module) CallEdges() []CallEdge {
	var out []CallEdge
	for _, fi := range m.order {
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := m.FuncInfo(StaticCallee(fi.Pkg.Info, call)); callee != nil {
				out = append(out, CallEdge{Caller: fi, Callee: callee, Site: call})
			}
			return true
		})
	}
	return out
}
