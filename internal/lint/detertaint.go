package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DeterTaintAnalyzer enforces the reproducibility contract: identical
// options must produce byte-identical reports, traces and journals. It
// tracks value-level dataflow taint, across function boundaries, from
// the nondeterminism source model (determinism.go): the wall clock
// (time.Now/Since/Until), the process-global math/rand generators, and
// map iteration order. Sinks are the places where a nondeterministic
// value breaks a replay or a byte-identity contract: journal/ledger
// appends and record encodes (internal/store),
// metric label values (internal/obs *Vec.With) and stdlib log event
// lines. In the simulation and codec packages (anyOutputPkg) every
// output is a sink: fmt/log prints, Write* calls, and the results of
// exported functions and methods, which callers outside the module
// view (the cmds) turn into reports. Taint propagates through
// assignments, composite literals, struct fields, returns and
// arguments of static module-internal calls.
//
// Two breaks keep the sanctioned patterns clean. Interface calls never
// return taint: the injected-Clock pattern routes wall time through an
// interface, so clock.Now() is deterministic by contract while a direct
// time.Now() is not. And naming a map-order-tainted variable in a
// sort.*/slices.* call clears that taint — collect-then-sort is the
// idiom this codebase uses everywhere. Integer += accumulation over a
// map range stays clean too (commutative), unlike floats.
//
// Limit: only values are tracked, not control dependence. A clock read
// or map-order value that reaches no sink is not a finding (so engine
// self-cost timing needs no suppression), and neither is one that only
// steers control flow — `if time.Since(t) > d { emit(x) }` or breaking
// out of a map range at the first match changes what is emitted
// without tainting the emitted value. The cross-run byte-identity
// tests (TestOutputPins, TestExtDegradedCrossRunDeterminism) are what
// catch that shape.
var DeterTaintAnalyzer = &Analyzer{
	Name: "detertaint",
	Doc: "track wall-clock, global-rand and map-iteration-order taint through " +
		"values and calls into journal writes, codec encodes, metric labels, event logs " +
		"and, in the simulation and codec packages, any output",
	Run: runDeterTaint,
	Applies: scopedTo("internal/gate", "internal/chaos",
		"internal/serve", "internal/store",
		"internal/sim", "internal/piuma", "internal/spmm", "internal/faults", "internal/bench"),
}

// anyOutputPkg selects, by path segment, the simulation and codec
// packages, where every print, Write* call and exported result is
// output (so fixture packages can stand in for the real ones).
var anyOutputPkg = scopedTo("sim", "piuma", "spmm", "faults", "bench", "store")

// Taint kinds, also used in messages.
const (
	taintClock    = "wall clock"
	taintRand     = "global rand"
	taintMapOrder = "map iteration order"
	// viaCaller suffixes a kind that entered a function through a
	// parameter or receiver: a caller's nondeterminism, which that
	// caller's own sinks report. The exported-result sink skips it, so
	// one flow is reported once, where a suppression at the caller
	// covers it.
	viaCaller = " via a caller"
)

// taintSet maps taint kind to the source position that introduced it
// (first writer wins, for stable witnesses).
type taintSet map[string]token.Pos

func (ts taintSet) clone() taintSet {
	out := make(taintSet, len(ts))
	for k, v := range ts {
		out[k] = v
	}
	return out
}

// union folds src into ts (allocating lazily), without touching the
// fixpoint change flag — for evaluating expressions, not mutating
// state.
func union(ts, src taintSet) taintSet {
	if len(src) == 0 {
		return ts
	}
	if ts == nil {
		ts = make(taintSet, len(src))
	}
	for k, pos := range src {
		if _, ok := ts[k]; !ok {
			ts[k] = pos
		}
	}
	return ts
}

// mapOrderKinds are the keys collect-then-sort and commutative
// accumulation clear.
var mapOrderKinds = [...]string{taintMapOrder, taintMapOrder + viaCaller}

// sortedKinds lists ts's kinds in order, each own kind just before its
// viaCaller form.
func sortedKinds(ts taintSet) []string {
	kinds := make([]string, 0, len(ts))
	for k := range ts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// own drops the viaCaller kinds.
func own(ts taintSet) taintSet {
	out := make(taintSet, len(ts))
	for k, pos := range ts {
		if !strings.HasSuffix(k, viaCaller) {
			out[k] = pos
		}
	}
	return out
}

// inherit marks argument taint as the callee parameter's viaCaller
// taint (an own witness wins over an inherited one).
func inherit(ts taintSet) taintSet {
	out := make(taintSet, len(ts))
	for _, k := range sortedKinds(ts) {
		ik := strings.TrimSuffix(k, viaCaller) + viaCaller
		if _, ok := out[ik]; !ok {
			out[ik] = ts[k]
		}
	}
	return out
}

// taintState is the module-wide fixpoint state.
type taintState struct {
	m       *Module
	obj     map[types.Object]taintSet
	ret     map[*types.Func]taintSet
	changed bool
}

// merge is union into a state entry (an obj or ret set), flagging a
// change when it adds a kind.
func (st *taintState) merge(dst taintSet, src taintSet) taintSet {
	n := len(dst)
	dst = union(dst, src)
	if len(dst) != n {
		st.changed = true
	}
	return dst
}

func (st *taintState) taintObj(obj types.Object, src taintSet) {
	if obj == nil || len(src) == 0 {
		return
	}
	st.obj[obj] = st.merge(st.obj[obj], src)
}

func runDeterTaint(p *Pass) {
	st := &taintState{
		m:   p.Module,
		obj: make(map[types.Object]taintSet),
		ret: make(map[*types.Func]taintSet),
	}
	// The state is almost monotone (sort kills are re-applied in source
	// order each pass), so a small fixed bound suffices; the loop exits
	// as soon as a pass leaves the state unchanged.
	for range 16 {
		st.changed = false
		for _, fi := range st.m.Funcs() {
			st.propagate(fi)
		}
		if !st.changed {
			break
		}
	}
	for _, fi := range st.m.Funcs() {
		st.reportSinks(p, fi)
	}
}

// propagate runs one transfer pass over a function body in source
// order. Function literal bodies are included: they share the enclosing
// scope's objects.
func (st *taintState) propagate(fi *FuncInfo) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			st.transferAssign(fi, n)
		case *ast.RangeStmt:
			if mapRange(info, n) {
				st.taintObj(info.Defs[identOf(n.Key)], taintSet{taintMapOrder: n.Pos()})
				st.taintObj(info.Defs[identOf(n.Value)], taintSet{taintMapOrder: n.Pos()})
			}
		case *ast.ReturnStmt:
			st.transferReturn(fi, n)
		case *ast.CallExpr:
			st.transferCall(fi, n)
		}
		return true
	})
}

func (st *taintState) transferAssign(fi *FuncInfo, as *ast.AssignStmt) {
	info := fi.Pkg.Info
	// Op-assigns: merge rhs taint into the target — map-order taint
	// only through float accumulation; the rest commutes.
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			ts := st.taintOf(fi, as.Rhs[0]).clone()
			if !floatAccum(info, as) {
				for _, k := range mapOrderKinds {
					delete(ts, k)
				}
			}
			st.taintObj(lhsTarget(info, as.Lhs[0]), ts)
		}
		return
	}
	// Multi-value from one call: every lhs gets the call's taint.
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		ts := st.taintOf(fi, as.Rhs[0])
		for _, lhs := range as.Lhs {
			st.taintObj(lhsTarget(info, lhs), ts)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		st.taintObj(lhsTarget(info, lhs), st.taintOf(fi, as.Rhs[i]))
	}
}

func (st *taintState) transferReturn(fi *FuncInfo, ret *ast.ReturnStmt) {
	if ts := st.resultTaint(fi, ret); len(ts) > 0 {
		st.ret[fi.Obj] = st.merge(st.ret[fi.Obj], ts)
	}
}

// resultTaint is the taint of the values a return statement yields.
func (st *taintState) resultTaint(fi *FuncInfo, ret *ast.ReturnStmt) taintSet {
	var ts taintSet
	if len(ret.Results) == 0 {
		// Bare return: named results carry the value.
		if fi.Decl.Type.Results != nil {
			for _, field := range fi.Decl.Type.Results.List {
				for _, name := range field.Names {
					ts = union(ts, st.obj[fi.Pkg.Info.Defs[name]])
				}
			}
		}
	}
	for _, r := range ret.Results {
		ts = union(ts, st.taintOf(fi, r))
	}
	return ts
}

// transferCall propagates argument taint, marked viaCaller, into the
// parameters of static module-internal callees, and applies the
// collect-then-sort kill.
func (st *taintState) transferCall(fi *FuncInfo, call *ast.CallExpr) {
	info := fi.Pkg.Info
	for _, obj := range sortedObjects(info, call) {
		for _, k := range mapOrderKinds {
			if _, ok := st.obj[obj][k]; ok {
				delete(st.obj[obj], k)
				st.changed = true
			}
		}
	}
	callee := st.m.FuncInfo(StaticCallee(info, call))
	if callee == nil {
		return
	}
	sig := callee.Obj.Signature()
	params := sig.Params()
	for i, arg := range call.Args {
		ts := st.taintOf(fi, arg)
		if len(ts) == 0 {
			continue
		}
		idx := i
		if sig.Variadic() && idx >= params.Len()-1 {
			idx = params.Len() - 1
		}
		if idx >= 0 && idx < params.Len() {
			st.taintObj(params.At(idx), inherit(ts))
		}
	}
	// Receiver taint flows into the method's receiver object.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && callee.Decl.Recv != nil {
		if recv := sig.Recv(); recv != nil {
			st.taintObj(recv, inherit(st.taintOf(fi, sel.X)))
		}
	}
}

// taintOf evaluates the taint of an expression under the current state.
func (st *taintState) taintOf(fi *FuncInfo, e ast.Expr) taintSet {
	info := fi.Pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		return st.obj[obj]
	case *ast.SelectorExpr:
		var ts taintSet
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			ts = union(nil, st.obj[s.Obj()])
		} else if obj := info.Uses[e.Sel]; obj != nil {
			ts = union(nil, st.obj[obj])
		}
		return union(ts, st.taintOf(fi, e.X))
	case *ast.CallExpr:
		return st.taintOfCall(fi, e)
	case *ast.BinaryExpr:
		return union(st.taintOf(fi, e.X).clone(), st.taintOf(fi, e.Y))
	case *ast.ParenExpr:
		return st.taintOf(fi, e.X)
	case *ast.StarExpr:
		return st.taintOf(fi, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return nil // channel receive: a synchronization point, not a copy
		}
		return st.taintOf(fi, e.X)
	case *ast.IndexExpr:
		return st.taintOf(fi, e.X)
	case *ast.SliceExpr:
		return st.taintOf(fi, e.X)
	case *ast.TypeAssertExpr:
		return st.taintOf(fi, e.X)
	case *ast.CompositeLit:
		var ts taintSet
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				vts := st.taintOf(fi, kv.Value)
				ts = union(ts, vts)
				// Struct literal: the field object records the taint so
				// later reads (and sink checks) see it.
				if key, ok := kv.Key.(*ast.Ident); ok {
					if fobj, ok := info.Uses[key].(*types.Var); ok && fobj.IsField() {
						st.taintObj(fobj, vts)
					}
				}
				continue
			}
			ts = union(ts, st.taintOf(fi, elt))
		}
		return ts
	}
	return nil
}

// taintOfCall handles sources, module-internal summaries, the interface
// break, and conservative stdlib propagation.
func (st *taintState) taintOfCall(fi *FuncInfo, call *ast.CallExpr) taintSet {
	info := fi.Pkg.Info

	if kind, _ := nondetSource(info, call); kind != "" {
		return taintSet{kind: call.Pos()}
	}

	// Builtins: len/cap and friends are deterministic even on maps;
	// append carries its arguments' taint.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "new", "make", "delete", "clear", "close":
				return nil
			}
			var ts taintSet
			for _, arg := range call.Args {
				ts = union(ts, st.taintOf(fi, arg))
			}
			return ts
		}
	}

	// Interface dispatch breaks taint: the callee's contract, not its
	// caller's dataflow, decides (the injected-Clock exemption).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv()) {
				return nil
			}
		}
	}

	// Static module-internal callee: its return summary. A result that
	// carries viaCaller taint depends on its inputs, so it also carries
	// this call's input taint.
	if fn := StaticCallee(info, call); fn != nil {
		if callee := st.m.FuncInfo(fn); callee != nil {
			ret := st.ret[callee.Obj]
			for k := range ret {
				if strings.HasSuffix(k, viaCaller) {
					return union(union(nil, ret), st.inputTaint(fi, call))
				}
			}
			return ret
		}
	}

	// Conversions and remaining stdlib calls: conservative union of the
	// inputs — time.Time methods keep a wall-clock read tainted through
	// UnixMilli() and friends.
	ts := st.inputTaint(fi, call)
	if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
		return nil // immediately-invoked literal: treated as opaque
	}
	return ts
}

// inputTaint is the union of a call's receiver (for methods) and
// argument taint.
func (st *taintState) inputTaint(fi *FuncInfo, call *ast.CallExpr) taintSet {
	var ts taintSet
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := fi.Pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			ts = union(ts, st.taintOf(fi, sel.X))
		}
	}
	for _, arg := range call.Args {
		ts = union(ts, st.taintOf(fi, arg))
	}
	return ts
}

// structFieldTaints unions the recorded taint of every field of the
// (possibly pointered) named struct type — how taint planted on fields
// by writes and literals surfaces when the whole value hits a sink.
func (st *taintState) structFieldTaints(t types.Type) taintSet {
	if t == nil {
		return nil
	}
	named := derefNamed(t)
	if named == nil {
		return nil
	}
	s, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var ts taintSet
	for i := 0; i < s.NumFields(); i++ {
		ts = union(ts, st.obj[s.Field(i)])
	}
	return ts
}

// sinkRule describes one sink call shape. seg selects module packages
// by path segment (so fixture packages can stand in for the real ones);
// recv restricts to a receiver type name ("" = plain function).
type sinkRule struct {
	seg      string
	recv     string
	name     string
	what     string
	recvSink bool // the receiver value (its fields) is what is emitted
}

var deterTaintSinks = []sinkRule{
	{seg: "store", recv: "Journal", name: "Append", what: "a journal append"},
	{seg: "store", recv: "Store", name: "Append", what: "a ledger append"},
	{seg: "store", recv: "Record", name: "Encode", what: "a record encode", recvSink: true},
	{seg: "store", recv: "IntakeRecord", name: "Encode", what: "an intake-record encode", recvSink: true},
	{seg: "store", recv: "", name: "AppendFrame", what: "a journal frame"},
	{seg: "obs", recv: "CounterVec", name: "With", what: "a metric label"},
	{seg: "obs", recv: "GaugeVec", name: "With", what: "a metric label"},
	{seg: "obs", recv: "HistogramVec", name: "With", what: "a metric label"},
}

// reportSinks walks one function and reports tainted values reaching
// sinks.
func (st *taintState) reportSinks(p *Pass, fi *FuncInfo) {
	info := fi.Pkg.Info
	fset := fi.Pkg.Fset
	report := func(pos token.Pos, ts taintSet, what string) {
		last := ""
		for _, k := range sortedKinds(ts) {
			kind := strings.TrimSuffix(k, viaCaller)
			if kind == last {
				continue // the own witness, sorted first, stands for both
			}
			last = kind
			p.Reportf(pos, "value tainted by %s (at %s) reaches %s; make the input deterministic (injected clock, seeded rand, sorted iteration) before it is emitted",
				kind, fset.Position(ts[k]), what)
		}
	}
	anyOutput := anyOutputPkg(fi.Pkg.Path, fi.Pkg.Types.Name())
	if anyOutput && fi.Obj.Exported() {
		what := "the result of exported " + funcDisplay(fi)
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its returns are the literal's, not fi's
			case *ast.ReturnStmt:
				if ts := own(st.resultTaint(fi, n)); len(ts) > 0 {
					report(n.Pos(), ts, what)
				}
			}
			return true
		})
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Stdlib log lines are decision/event output everywhere; in the
		// simulation and codec packages so is every print and write.
		if pkg, name, ok := outputCall(info, call); ok && (pkg == "log" || anyOutput) {
			what := "an event-log line"
			if pkg != "log" {
				what = "the output of " + strings.TrimPrefix(pkg+"."+name, ".")
			}
			var ts taintSet
			for _, arg := range call.Args {
				ts = union(ts, st.taintOf(fi, arg))
			}
			if len(ts) > 0 {
				report(call.Pos(), ts, what)
			}
			return true
		}
		rule, sel, ok := st.matchSink(info, call)
		if !ok {
			return true
		}
		if rule.recvSink {
			ts := union(st.taintOf(fi, sel.X).clone(), st.structFieldTaints(info.TypeOf(sel.X)))
			if len(ts) > 0 {
				report(call.Pos(), ts, rule.what)
			}
			return true
		}
		var ts taintSet
		for _, arg := range call.Args {
			ts = union(union(ts, st.taintOf(fi, arg)), st.structFieldTaints(info.TypeOf(arg)))
		}
		if len(ts) > 0 {
			report(call.Pos(), ts, rule.what)
		}
		return true
	})
}

// matchSink resolves a call against the sink table.
func (st *taintState) matchSink(info *types.Info, call *ast.CallExpr) (sinkRule, *ast.SelectorExpr, bool) {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	for _, rule := range deterTaintSinks {
		if rule.recv == "" {
			if pkg, name, ok := pkgQualifiedCallee(info, call); ok && name == rule.name && pathWithin(pkg, rule.seg) {
				return rule, sel, true
			}
			continue
		}
		if sel == nil {
			continue
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.MethodVal || sel.Sel.Name != rule.name {
			continue
		}
		named := derefNamed(s.Recv())
		if named == nil || named.Obj().Name() != rule.recv || named.Obj().Pkg() == nil {
			continue
		}
		if pathWithin(named.Obj().Pkg().Path(), rule.seg) {
			return rule, sel, true
		}
	}
	return sinkRule{}, nil, false
}

// lhsTarget resolves an assignment target to the object that receives
// the taint: the variable itself, the struct field for selector writes,
// or the container variable for index/deref writes.
func lhsTarget(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Defs[e]; obj != nil {
			return obj
		}
		return info.Uses[e]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.IndexExpr:
		return rootObject(info, e.X)
	case *ast.StarExpr:
		return rootObject(info, e.X)
	}
	return nil
}

// rootObject digs to the variable at the base of an expression.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
				return s.Obj()
			}
			return info.Uses[x.Sel]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// identOf unwraps an expression to its identifier (nil for blank or
// non-identifiers).
func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	if id == nil || id.Name == "_" {
		return nil
	}
	return id
}
