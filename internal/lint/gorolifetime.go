package lint

import (
	"go/ast"
)

// GoroLifetimeAnalyzer flags goroutines launched without a bounded
// lifetime. The criterion is CFG exit reachability: a goroutine whose
// body (or the function it runs) can never reach its exit — no
// reachable return, break out of its loop, panic or terminal call —
// runs until the process dies, invisible to Close and to ctx
// cancellation. Every sanctioned stop shape makes the exit reachable: a
// `select` with a `<-ctx.Done(): return` case, a receive from a done
// channel followed by return, `for range ch` (bounded by close), a
// conditional loop. The check propagates through calls: a goroutine
// whose body unconditionally calls a run-forever function is itself
// flagged. Dynamic calls (func values, interface methods) are assumed
// to return.
var GoroLifetimeAnalyzer = &Analyzer{
	Name: "gorolifetime",
	Doc: "flag goroutines whose body can never reach its exit — no ctx/done " +
		"stop path, no join, no reachable return — and so outlives every owner",
	Run:     runGoroLifetime,
	Applies: notMain,
}

func runGoroLifetime(p *Pass) {
	m := p.Module

	cfgs := make(map[*FuncInfo]*CFG)
	for _, fi := range m.Funcs() {
		cfgs[fi] = BuildCFG(fi.Pkg.Info, fi.Decl.Body)
	}

	// Fixpoint over "runs forever": a function joins the set when its
	// exit becomes unreachable once calls to run-forever functions are
	// treated as dead ends. Monotone: the set only grows.
	runsForever := make(map[*FuncInfo]bool)
	for changed := true; changed; {
		changed = false
		for _, fi := range m.Funcs() {
			if runsForever[fi] {
				continue
			}
			if !exitReachableWith(cfgs[fi], m, fi, runsForever) {
				runsForever[fi] = true
				changed = true
			}
		}
	}

	for _, fi := range m.Funcs() {
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				cfg := BuildCFG(fi.Pkg.Info, lit.Body)
				if !exitReachableWith(cfg, m, fi, runsForever) {
					p.Reportf(g.Pos(), "goroutine body can never reach its exit (no reachable return or stop path); add a <-ctx.Done()/stop-channel case or bound the loop so Close can stop it")
				}
				return true
			}
			if callee := m.FuncInfo(StaticCallee(fi.Pkg.Info, g.Call)); callee != nil && runsForever[callee] {
				p.Reportf(g.Pos(), "goroutine runs %s, which can never reach its exit (no reachable return or stop path); add a <-ctx.Done()/stop-channel case or bound its loop so Close can stop it", funcDisplay(callee))
			}
			return true
		})
	}
}

// exitReachableWith reports whether the CFG's exit is reachable from
// its entry when statements calling a known run-forever function cut
// the block they appear in (control never proceeds past them).
func exitReachableWith(cfg *CFG, m *Module, fi *FuncInfo, runsForever map[*FuncInfo]bool) bool {
	cut := func(b *Block) bool {
		for _, node := range b.Nodes {
			if nodeCallsForever(m, fi, node, runsForever) {
				return true
			}
		}
		return false
	}
	seen := make(map[*Block]bool, len(cfg.Blocks))
	stack := []*Block{cfg.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		if b == cfg.Exit {
			return true
		}
		if cut(b) {
			continue
		}
		stack = append(stack, b.Succs...)
	}
	return false
}

// nodeCallsForever reports whether the node synchronously calls a
// run-forever function. Function literals, go statements and defers do
// not run here, so they are skipped.
func nodeCallsForever(m *Module, fi *FuncInfo, node ast.Node, runsForever map[*FuncInfo]bool) bool {
	switch node.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return false
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if callee := m.FuncInfo(StaticCallee(fi.Pkg.Info, n)); callee != nil && runsForever[callee] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
