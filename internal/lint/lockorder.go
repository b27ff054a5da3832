package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockOrderAnalyzer computes the module-wide lock-acquisition graph —
// which mutexes may be held at the point each other mutex is acquired,
// with holds propagated through static calls — and reports every cycle
// as a potential deadlock, carrying the full acquisition-chain witness.
//
// Locks are identified structurally, not by instance: a mutex field is
// keyed pkg.Type.field, a package-level mutex pkg.var, an embedded one
// pkg.Type.embeddedField, and a local one function$name. Two fields of
// the same key on different instances therefore conflate, so same-key
// edges are suppressed except for a re-acquire of the identical printed
// receiver (a guaranteed self-deadlock). The held-set analysis is
// walkHeld, the may-held walk over the per-function CFG that
// lockdiscipline reads too. Function literals, go statements and
// defers are opaque — they run outside the acquiring critical
// section's control flow (defers run at exit, usually after the unlock
// they pair with).
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "report cycles in the interprocedural lock-acquisition order " +
		"(mutexes acquired while other mutexes are held) as potential deadlocks",
	Run:     runLockOrder,
	Applies: notMain,
}

// lockAcq is one acquisition event: a stable lock key, the printed
// receiver expression, and where the Lock call sits.
type lockAcq struct {
	key  string
	recv string
	pos  token.Pos
}

// lockEvent is one ordered event inside a CFG node.
type lockEvent struct {
	acquire *lockAcq  // non-nil: Lock/RLock
	release lockHold  // non-zero: Unlock/RUnlock
	call    *FuncInfo // non-nil: static module-internal call
	blocks  string    // non-empty: an operation that can block indefinitely
	pos     token.Pos
}

// lockCallSite is a module-internal call with the may-held snapshot at
// the call.
type lockCallSite struct {
	callee *FuncInfo
	pos    token.Pos
	held   []lockAcq // sorted by key
}

// lockEdge is one arc of the acquisition graph with its witness text.
type lockEdge struct {
	from, to string
	witness  string
	pos      token.Pos // report anchor (acquisition or call site)
}

// lockFacts is everything runLockOrder learns about one function.
type lockFacts struct {
	acquires []lockAcq // local acquisitions, in CFG order
	edges    []lockEdge
	calls    []lockCallSite
}

func runLockOrder(p *Pass) {
	m := p.Module
	fset := m.Packages[0].Fset

	facts := make(map[*FuncInfo]*lockFacts)
	for _, fi := range m.Funcs() {
		facts[fi] = lockOrderFacts(m, fi)
	}

	// Transitive acquisition summaries with provenance: for every
	// function, which lock keys it may acquire (directly or through
	// calls), and through which call that knowledge arrived.
	type acqProv struct {
		pos token.Pos // local Lock position, or the call-site position
		via *FuncInfo // nil: acquired locally at pos
	}
	summary := make(map[*FuncInfo]map[string]acqProv)
	for _, fi := range m.Funcs() {
		s := make(map[string]acqProv)
		for _, a := range facts[fi].acquires {
			if _, ok := s[a.key]; !ok {
				s[a.key] = acqProv{pos: a.pos}
			}
		}
		summary[fi] = s
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range m.Funcs() {
			for _, cs := range facts[fi].calls {
				callee := summary[cs.callee]
				for _, key := range sortedKeys(callee) {
					if _, ok := summary[fi][key]; !ok {
						summary[fi][key] = acqProv{pos: cs.pos, via: cs.callee}
						changed = true
					}
				}
			}
		}
	}

	// Assemble the global edge list: direct edges first, then edges
	// induced by calling into lock-acquiring functions while holding.
	var edges []lockEdge
	for _, fi := range m.Funcs() {
		edges = append(edges, facts[fi].edges...)
		for _, cs := range facts[fi].calls {
			if len(cs.held) == 0 {
				continue
			}
			for _, key := range sortedKeys(summary[cs.callee]) {
				// Reconstruct the call chain down to the actual Lock.
				chain := []string{funcDisplay(cs.callee)}
				prov := summary[cs.callee][key]
				for prov.via != nil {
					chain = append(chain, funcDisplay(prov.via))
					prov = summary[prov.via][key]
				}
				for _, h := range cs.held {
					if h.key == key {
						continue // cross-instance same-key: not comparable
					}
					edges = append(edges, lockEdge{
						from: h.key,
						to:   key,
						pos:  cs.pos,
						witness: fmt.Sprintf("%s locked at %s, then call at %s enters %s, which acquires %s at %s",
							h.key, fset.Position(h.pos), fset.Position(cs.pos),
							strings.Join(chain, " -> "), key, fset.Position(prov.pos)),
					})
				}
			}
		}
	}

	// Dedup by (from, to), first edge wins (construction order is
	// deterministic: function order, then CFG order).
	adj := make(map[string][]string)
	edgeInfo := make(map[[2]string]lockEdge)
	var nodes []string
	seen := make(map[string]bool)
	for _, e := range edges {
		k := [2]string{e.from, e.to}
		if _, ok := edgeInfo[k]; ok {
			continue
		}
		edgeInfo[k] = e
		adj[e.from] = append(adj[e.from], e.to)
		for _, n := range []string{e.from, e.to} {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		sort.Strings(adj[n])
	}

	for _, cycle := range lockCycles(nodes, adj, edgeInfo) {
		var parts []string
		for i := 0; i+1 < len(cycle); i++ {
			parts = append(parts, edgeInfo[[2]string{cycle[i], cycle[i+1]}].witness)
		}
		first := edgeInfo[[2]string{cycle[0], cycle[1]}]
		p.Reportf(first.pos, "potential deadlock: lock-order cycle %s: %s",
			strings.Join(cycle, " -> "), strings.Join(parts, "; "))
	}
}

// lockCycles finds the strongly connected components of the acquisition
// graph and returns one representative cycle per cyclic SCC (including
// single-node self-loops), each as a key sequence starting and ending
// at the SCC's smallest key. Deterministic: nodes and adjacency are
// sorted, and the representative is the BFS-shortest cycle.
func lockCycles(nodes []string, adj map[string][]string, edgeInfo map[[2]string]lockEdge) [][]string {
	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool)
	var stack []string
	next := 1
	sccOf := make(map[string]int)
	var sccs [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				sccOf[w] = len(sccs)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			sccs = append(sccs, comp)
		}
	}
	for _, v := range nodes {
		if index[v] == 0 {
			strongconnect(v)
		}
	}

	var cycles [][]string
	for id, comp := range sccs {
		start := comp[0]
		if len(comp) == 1 {
			if _, ok := edgeInfo[[2]string{start, start}]; ok {
				cycles = append(cycles, []string{start, start})
			}
			continue
		}
		// Shortest path from start back to start inside the SCC.
		parent := map[string]string{}
		queue := []string{start}
		var last string
		for len(queue) > 0 && last == "" {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if sccOf[w] != id {
					continue
				}
				if w == start {
					last = v
					break
				}
				if _, ok := parent[w]; !ok {
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
		if last == "" {
			continue // SCC of size >1 always has one, but stay safe
		}
		var rev []string
		for v := last; v != start; v = parent[v] {
			rev = append(rev, v)
		}
		cycle := []string{start}
		for i := len(rev) - 1; i >= 0; i-- {
			cycle = append(cycle, rev[i])
		}
		cycle = append(cycle, start)
		cycles = append(cycles, cycle)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i][0] < cycles[j][0] })
	return cycles
}

// lockOrderFacts reads one function's acquisitions, direct
// held→acquired edges and call sites (with their held snapshots) off
// the shared may-held walk.
func lockOrderFacts(m *Module, fi *FuncInfo) *lockFacts {
	f := &lockFacts{}
	fset := fi.Pkg.Fset
	walkHeld(m, fi.Pkg, funcDisplay(fi), fi.Decl.Body, func(ev lockEvent, held map[lockHold]lockAcq) {
		switch {
		case ev.acquire != nil:
			a := *ev.acquire
			f.acquires = append(f.acquires, a)
			for _, h := range heldSnapshot(held) {
				if h.key == a.key {
					if h.recv != a.recv {
						continue // same key, different instance expression
					}
					f.edges = append(f.edges, lockEdge{
						from: h.key, to: a.key, pos: a.pos,
						witness: fmt.Sprintf("%s locked at %s, then locked again at %s (self-deadlock on the same receiver)",
							h.key, fset.Position(h.pos), fset.Position(a.pos)),
					})
					continue
				}
				f.edges = append(f.edges, lockEdge{
					from: h.key, to: a.key, pos: a.pos,
					witness: fmt.Sprintf("%s locked at %s, then %s acquired at %s",
						h.key, fset.Position(h.pos), a.key, fset.Position(a.pos)),
				})
			}
		case ev.call != nil:
			f.calls = append(f.calls, lockCallSite{callee: ev.call, pos: ev.pos, held: heldSnapshot(held)})
		}
	})
	return f
}

// lockHold identifies one hold in walkHeld's state: the lock key (see
// lockKeyFor) and the printed receiver it was locked through, so two
// instances of one mutex field are held and released apart.
type lockHold struct{ key, recv string }

// heldSnapshot lists the held locks sorted by key, then receiver.
func heldSnapshot(held map[lockHold]lockAcq) []lockAcq {
	out := make([]lockAcq, 0, len(held))
	for _, a := range held {
		out = append(out, a)
	}
	slices.SortFunc(out, func(a, b lockAcq) int {
		return cmp.Or(strings.Compare(a.key, b.key), strings.Compare(a.recv, b.recv))
	})
	return out
}

// walkHeld is the lock walker both lock analyzers share: a may-held
// dataflow over body's CFG. Branches do not leak holds into each
// other, an Unlock ends the hold, and a deferred Unlock holds to
// function exit. Once the states are stable it replays every reachable
// block in CFG order and calls visit for each event with the locks that
// may be held just before it (visit must not modify held). Local
// mutexes are keyed under scope; a nil m records no call events.
func walkHeld(m *Module, pkg *Package, scope string, body *ast.BlockStmt, visit func(ev lockEvent, held map[lockHold]lockAcq)) {
	cfg := BuildCFG(pkg.Info, body)
	x := &eventReader{m: m, pkg: pkg, scope: scope, comms: selectComms(body)}
	x.visit = x.inspect
	events := make([][]lockEvent, len(cfg.Blocks))
	for _, blk := range cfg.Blocks {
		x.evs = nil
		for _, n := range blk.Nodes {
			x.node(n)
		}
		events[blk.Index] = x.evs
	}

	apply := func(held map[lockHold]lockAcq, ev lockEvent) {
		switch {
		case ev.acquire != nil:
			h := lockHold{ev.acquire.key, ev.acquire.recv}
			if _, ok := held[h]; !ok {
				held[h] = *ev.acquire
			}
		case ev.release.key != "":
			delete(held, ev.release)
		}
	}

	reach := cfg.Reachable()
	in := map[*Block]map[lockHold]lockAcq{cfg.Entry: {}}
	for changed := true; changed; {
		changed = false
		for _, blk := range cfg.Blocks {
			if !reach[blk] {
				continue
			}
			state, ok := in[blk]
			if !ok {
				continue
			}
			out := make(map[lockHold]lockAcq, len(state))
			for k, v := range state {
				out[k] = v
			}
			for _, ev := range events[blk.Index] {
				apply(out, ev)
			}
			for _, succ := range blk.Succs {
				dst, ok := in[succ]
				if !ok {
					dst = make(map[lockHold]lockAcq, len(out))
					in[succ] = dst
					changed = true
				}
				for k, v := range out {
					if cur, ok := dst[k]; !ok || v.pos < cur.pos {
						if !ok || cur != v {
							dst[k] = v
							changed = true
						}
					}
				}
			}
		}
	}

	for _, blk := range cfg.Blocks {
		state, ok := in[blk]
		if !ok || !reach[blk] {
			continue
		}
		held := make(map[lockHold]lockAcq, len(state))
		for k, v := range state {
			held[k] = v
		}
		for _, ev := range events[blk.Index] {
			visit(ev, held)
			apply(held, ev)
		}
	}
}

// selectComms maps the communication statement of every select case in
// body to token.NoPos, except that the first case of a select without a
// default maps to the select's position: a select settles its own cases
// (a default makes it a non-blocking attempt), so only a select with no
// default blocks, and it is reported once.
func selectComms(body *ast.BlockStmt) map[ast.Node]token.Pos {
	var comms map[ast.Node]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		if comms == nil {
			comms = make(map[ast.Node]token.Pos)
		}
		at := sel.Pos()
		for _, c := range sel.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				at = token.NoPos
			}
		}
		for _, c := range sel.Body.List {
			if comm := c.(*ast.CommClause).Comm; comm != nil {
				comms[comm] = at
				at = token.NoPos
			}
		}
		return true
	})
	return comms
}

// eventReader extracts the ordered events of the CFG nodes of one body
// into evs.
type eventReader struct {
	m            *Module
	pkg          *Package
	scope        string
	comms        map[ast.Node]token.Pos
	evs          []lockEvent
	inComm       bool                // the node is a select case's communication
	blockingOnly bool                // inside a go or defer statement
	visit        func(ast.Node) bool // x.inspect, bound once
}

// node appends one CFG node's events. Go and defer statements keep
// only blocking operations: a deferred Unlock holds the lock to exit
// (modeled by never releasing), and a deferred wait runs under it; a
// spawned call runs on a goroutine that does not inherit the spawner's
// critical section, but its arguments are evaluated under it.
func (x *eventReader) node(node ast.Node) {
	selectAt, inComm := x.comms[node]
	x.inComm = inComm
	switch node := node.(type) {
	case *ast.GoStmt:
		x.blockingOnly = true
		for _, arg := range node.Call.Args {
			ast.Inspect(arg, x.visit)
		}
		x.blockingOnly = false
		return
	case *ast.DeferStmt:
		x.blockingOnly = true
		ast.Inspect(node.Call, x.visit)
		x.blockingOnly = false
		return
	}
	if selectAt.IsValid() {
		x.evs = append(x.evs, lockEvent{blocks: "select without a default case", pos: selectAt})
	}
	ast.Inspect(node, x.visit)
}

// block records an operation that can block, unless the enclosing
// select settles it.
func (x *eventReader) block(n ast.Node, what string) {
	if !x.inComm {
		x.evs = append(x.evs, lockEvent{blocks: what, pos: n.Pos()})
	}
}

func (x *eventReader) inspect(n ast.Node) bool {
	info := x.pkg.Info
	switch n := n.(type) {
	case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
		return false
	case *ast.SendStmt:
		x.block(n, "channel send")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			x.block(n, "channel receive")
		}
	case *ast.SelectStmt: // only an empty select{} is a CFG node
		x.block(n, "select without a default case")
	case *ast.CallExpr:
		if sel, typ := syncCall(info, n); sel != nil {
			switch {
			case typ == "WaitGroup" && sel.Sel.Name == "Wait":
				x.block(n, "sync.WaitGroup.Wait")
			case (typ == "Mutex" || typ == "RWMutex") && !x.blockingOnly:
				key, recv := lockKeyFor(x.pkg, x.scope, sel)
				switch sel.Sel.Name {
				case "Lock", "RLock":
					x.evs = append(x.evs, lockEvent{acquire: &lockAcq{key: key, recv: recv, pos: n.Pos()}, pos: n.Pos()})
				case "Unlock", "RUnlock":
					x.evs = append(x.evs, lockEvent{release: lockHold{key, recv}, pos: n.Pos()})
				}
			}
			return true
		}
		if pkg, name, ok := pkgQualifiedCallee(info, n); ok && pkg == "time" && name == "Sleep" {
			x.block(n, "time.Sleep")
		} else if x.m != nil && !x.blockingOnly {
			if callee := x.m.FuncInfo(StaticCallee(info, n)); callee != nil {
				x.evs = append(x.evs, lockEvent{call: callee, pos: n.Pos()})
			}
		}
	}
	return true
}

// syncCall resolves a call to a method of a sync type (including
// promoted methods of embedded ones), returning the selector and the
// type's name: Mutex, RWMutex, WaitGroup and so on.
func syncCall(info *types.Info, call *ast.CallExpr) (*ast.SelectorExpr, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Signature().Recv() == nil {
		return nil, ""
	}
	named := derefNamed(fn.Signature().Recv().Type())
	if named == nil {
		return nil, ""
	}
	return sel, named.Obj().Name()
}

// lockKeyFor derives the stable identity of the mutex behind a
// Lock/Unlock selector: pkg.Type.field for fields (including embedded
// mutexes and fields reached through other fields), pkg.var for
// package-level mutexes, and scope$expr for locals.
func lockKeyFor(pkg *Package, scope string, sel *ast.SelectorExpr) (string, string) {
	info := pkg.Info
	recv := exprString(pkg.Fset, sel.X)

	// Promoted method of an embedded mutex: key by the outer type and
	// the first embedding hop.
	if s, ok := info.Selections[sel]; ok && len(s.Index()) > 1 {
		if named := derefNamed(s.Recv()); named != nil {
			if st, ok := named.Underlying().(*types.Struct); ok && s.Index()[0] < st.NumFields() {
				return typeQual(named) + "." + st.Field(s.Index()[0]).Name(), recv
			}
		}
	}

	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name(), recv
			}
			return scope + "$" + v.Name(), recv
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			if named := derefNamed(s.Recv()); named != nil {
				return typeQual(named) + "." + s.Obj().Name(), recv
			}
		} else if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name(), recv // qualified pkg.mu
		}
	}
	return scope + "$" + recv, recv
}

// typeQual renders a named type as pkg.Type.
func typeQual(n *types.Named) string {
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Name() + "." + n.Obj().Name()
}

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
