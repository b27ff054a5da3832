package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the per-function control-flow layer the flow-sensitive
// analyzers (lockorder, lockdiscipline, gorolifetime) are built on: a
// statement-granular CFG with an artificial exit block. The builder is
// deliberately syntactic — it needs type information only to recognize
// calls that terminate the goroutine (panic, os.Exit, runtime.Goexit,
// log.Fatal*), which end a block with an edge to Exit just like return.
//
// Block node lists are disjoint: a compound statement contributes only
// its scalar parts (init/cond/post/tag expressions) to the block that
// evaluates them, never its nested statements — those live in their own
// blocks. Function literals are opaque: their bodies are separate
// functions with separate CFGs.

// CFG is one function body's control-flow graph.
type CFG struct {
	// Entry is where execution starts; it is always Blocks[0].
	Entry *Block
	// Exit is the artificial sink every return, panic and fallen-off-
	// the-end path reaches. It holds no nodes.
	Exit *Block
	// Blocks lists every block in creation order (deterministic for a
	// given body). Unreachable blocks — dead code after return, the
	// after-block of an exitless loop — are included.
	Blocks []*Block
}

// Block is a straight-line run of statements: control enters at the
// first node and leaves at the end through one of Succs.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Nodes are the statements and expressions evaluated in this block,
	// in source order. Nested statements of compound constructs are not
	// included (they have their own blocks).
	Nodes []ast.Node
	// Succs are the possible successors, in discovery order.
	Succs []*Block
}

// Reachable computes the blocks reachable from Entry.
func (c *CFG) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool, len(c.Blocks))
	stack := []*Block{c.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return seen
}

// ExitReachable reports whether any path from Entry reaches Exit — i.e.
// whether the function can ever finish (normally or by panic). A
// function whose exit is unreachable runs forever once entered: the
// shape gorolifetime flags when such a function is launched as a
// goroutine.
func (c *CFG) ExitReachable() bool {
	return c.Reachable()[c.Exit]
}

// BuildCFG constructs the CFG for one function body. info may be nil
// (terminal-call recognition then degrades to the builtin panic only,
// matched syntactically).
func BuildCFG(info *types.Info, body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{info: info, cfg: &CFG{}}
	b.cfg.Exit = &Block{} // indexed after building
	entry := b.newBlock()
	b.cfg.Entry = entry
	end := b.stmts(body.List, entry)
	b.edge(end, b.cfg.Exit)
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target)
		}
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// scope is one enclosing breakable (and possibly continuable)
// construct.
type scope struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select scopes
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	info   *types.Info
	cfg    *CFG
	scopes []scope
	labels map[string]*Block
	gotos  []pendingGoto
	// fallTo is the next case-clause block while building a switch
	// body (the fallthrough target), nil elsewhere.
	fallTo *Block
	// pendingLabel is the label of the labeled statement currently
	// being entered, consumed by the loop/switch/select handlers.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edge adds from→to; a nil from means the predecessor path already
// ended (return/branch), a nil to a malformed target (fallthrough in a
// last clause) — nothing to connect either way.
func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// stmts threads a statement list through cur, returning the block where
// control continues (nil when every path ended). Statements after a
// terminated path are dead code; they are still placed, in a fresh
// unreachable block, so analyzers see every node exactly once.
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *Block) *Block {
	for _, s := range list {
		if cur == nil {
			cur = b.newBlock() // unreachable: no predecessor edge
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

// takeLabel consumes the pending label for the construct being entered.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findScope resolves a break/continue target: the innermost matching
// scope, or the one carrying the label.
func (b *cfgBuilder) findScope(label string, needContinue bool) *scope {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := &b.scopes[i]
		if needContinue && sc.continueTo == nil {
			continue
		}
		if label == "" || sc.label == label {
			return sc
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *Block) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.pendingLabel = ""
		return b.stmts(s.List, cur)

	case *ast.LabeledStmt:
		// The label is a goto target and names the inner construct for
		// labeled break/continue.
		target := b.newBlock()
		b.edge(cur, target)
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		return b.stmt(s.Stmt, target)

	case *ast.IfStmt:
		b.pendingLabel = ""
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		then := b.newBlock()
		b.edge(cur, then)
		after := b.newBlock()
		b.edge(b.stmts(s.Body.List, then), after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cur, els)
			b.edge(b.stmt(s.Else, els), after)
		} else {
			b.edge(cur, after)
		}
		return after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		b.edge(head, body)
		after := b.newBlock()
		if s.Cond != nil {
			// An unconditional `for` has no exit edge from its head: the
			// only ways out are break, return and panic.
			b.edge(head, after)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
		}
		b.scopes = append(b.scopes, scope{label: label, breakTo: after, continueTo: post})
		b.edge(b.stmts(s.Body.List, body), post)
		b.scopes = b.scopes[:len(b.scopes)-1]
		return after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(cur, head)
		head.Nodes = append(head.Nodes, s.X)
		body := b.newBlock()
		b.edge(head, body)
		after := b.newBlock()
		// Ranges always terminate from the CFG's point of view: the
		// ranged collection is finite, and a ranged channel is bounded
		// by its close (the sanctioned stop signal).
		b.edge(head, after)
		b.scopes = append(b.scopes, scope{label: label, breakTo: after, continueTo: head})
		b.edge(b.stmts(s.Body.List, body), head)
		b.scopes = b.scopes[:len(b.scopes)-1]
		return after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			cur.Nodes = append(cur.Nodes, s.Tag)
		}
		return b.switchClauses(cur, label, s.Body.List, func(c ast.Stmt, blk *Block) ([]ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
			return cc.Body, cc.List == nil
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Assign)
		return b.switchClauses(cur, label, s.Body.List, func(c ast.Stmt, blk *Block) ([]ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			return cc.Body, cc.List == nil
		})

	case *ast.SelectStmt:
		label := b.takeLabel()
		after := b.newBlock()
		b.scopes = append(b.scopes, scope{label: label, breakTo: after})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(cur, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.edge(b.stmts(cc.Body, blk), after)
		}
		// A select{} with no cases blocks forever: cur gets no
		// successor, so after (and everything behind it) is unreachable.
		// Having no nested statements, it is a node of cur itself.
		if len(s.Body.List) == 0 {
			cur.Nodes = append(cur.Nodes, s)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		return after

	case *ast.ReturnStmt:
		b.pendingLabel = ""
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.cfg.Exit)
		return nil

	case *ast.BranchStmt:
		b.pendingLabel = ""
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if sc := b.findScope(label, false); sc != nil {
				b.edge(cur, sc.breakTo)
			}
			return nil
		case token.CONTINUE:
			if sc := b.findScope(label, true); sc != nil {
				b.edge(cur, sc.continueTo)
			}
			return nil
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: cur, label: label})
			return nil
		case token.FALLTHROUGH:
			b.edge(cur, b.fallTo)
			return nil
		}
		return cur

	case *ast.ExprStmt:
		b.pendingLabel = ""
		cur.Nodes = append(cur.Nodes, s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.terminalCall(call) {
			b.edge(cur, b.cfg.Exit)
			return nil
		}
		return cur

	default:
		// Assignments, declarations, sends, inc/dec, go, defer, empty.
		b.pendingLabel = ""
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// switchClauses builds the shared (expression/type) switch shape.
// clause extracts a case's body and whether it is the default.
func (b *cfgBuilder) switchClauses(cur *Block, label string, clauses []ast.Stmt, clause func(ast.Stmt, *Block) ([]ast.Stmt, bool)) *Block {
	after := b.newBlock()
	b.scopes = append(b.scopes, scope{label: label, breakTo: after})
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		b.edge(cur, blocks[i])
	}
	hasDefault := false
	savedFall := b.fallTo
	for i, c := range clauses {
		body, isDefault := clause(c, blocks[i])
		if isDefault {
			hasDefault = true
		}
		b.fallTo = nil
		if i+1 < len(clauses) {
			b.fallTo = blocks[i+1]
		}
		b.edge(b.stmts(body, blocks[i]), after)
	}
	b.fallTo = savedFall
	if !hasDefault {
		b.edge(cur, after)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	return after
}

// terminalCall recognizes calls that never return control to the
// caller's function.
func (b *cfgBuilder) terminalCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b.info != nil {
			bi, ok := b.info.Uses[fun].(*types.Builtin)
			return ok && bi.Name() == "panic"
		}
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if b.info == nil {
			return false
		}
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		pn, ok := b.info.Uses[id].(*types.PkgName)
		if !ok {
			return false
		}
		switch pn.Imported().Path() + "." + fun.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}
