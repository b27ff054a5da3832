package lint

import (
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// LockDisciplineAnalyzer flags operations that can block indefinitely
// while a sync.Mutex or sync.RWMutex may be held: channel sends and
// receives, selects without a default case, sync.WaitGroup.Wait and
// time.Sleep. In the serving layer a blocked lock holder stalls every
// handler behind it; the rule there is "compute under the lock, never
// wait under it". Held means held on some path through the function:
// the analyzer reads the may-held lock walk lockorder runs over the
// CFG, so an Unlock on an early-return branch does not end the hold on
// the path that falls through. Non-blocking channel attempts (select
// with a default case) are allowed, and function literals are analyzed
// as their own functions — a goroutine launched under a lock does not
// inherit it.
var LockDisciplineAnalyzer = &Analyzer{
	Name: "lockdiscipline",
	Doc: "forbid blocking channel operations, WaitGroup.Wait and time.Sleep " +
		"while a sync.Mutex or RWMutex is held",
	Run:     runLockDiscipline,
	Applies: notMain,
}

func runLockDiscipline(p *Pass) {
	for _, pkg := range p.Targets {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch n := n.(type) {
				case *ast.FuncDecl:
					body = n.Body
				case *ast.FuncLit:
					body = n.Body
				}
				if body == nil {
					return true
				}
				walkHeld(nil, pkg, "", body, func(ev lockEvent, held map[lockHold]lockAcq) {
					if ev.blocks == "" || len(held) == 0 {
						return
					}
					var first lockAcq // the earliest acquisition still held
					for _, h := range held {
						if !first.pos.IsValid() || h.pos < first.pos {
							first = h
						}
					}
					p.Reportf(ev.pos, "%s while %s is held (locked at %s) can block the lock holder indefinitely; move the wait outside the critical section", ev.blocks, first.recv, pkg.Fset.Position(first.pos))
				})
				return true
			})
		}
	}
}

// exprString renders an expression compactly for messages and lock
// matching.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, fset, e); err != nil {
		return "?"
	}
	return b.String()
}
