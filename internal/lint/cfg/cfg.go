// Package cfg builds intraprocedural control-flow graphs from Go ASTs
// for geolint's flow-sensitive analyzers.
//
// It is a dependency-free mirror of golang.org/x/tools/go/cfg — the
// same playbook as internal/lint/analysis: the container this repo
// builds in has no module proxy access, so the upstream package cannot
// be vendored, and the shapes here (CFG, Block, a mayReturn hook for
// no-return calls) are kept close enough that a consumer ports to the
// upstream package mechanically. Where this package deliberately goes
// beyond the upstream surface:
//
//   - There is a single synthetic Exit block. Every `return` and every
//     fall-off-the-end path gets an edge to it, so a dataflow analyzer
//     asks one question — "what fact reaches Exit?" — to reason about
//     all exits at once.
//   - Calls that cannot return (panic, os.Exit, log.Fatal*,
//     runtime.Goexit) terminate their block with NO successor. A pin or
//     lock held on a panicking path is not a leak the way a held pin on
//     a returning path is: deferred releases still run during
//     unwinding, and os.Exit forfeits the process anyway. Analyzers
//     that disagree can pass their own mayReturn.
//
// Function literals are NOT inlined: a FuncLit appears as an opaque
// expression inside whatever statement mentions it, and callers build
// a separate CFG per literal. Defer statements are ordinary block
// nodes — an analyzer models "from this point on, every exit runs the
// deferred call" by applying the deferred effect at the DeferStmt
// itself, which is sound for the monotone facts geolint tracks.
package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CFG is the control-flow graph of one function body.
// Blocks[0] is the entry block; Exit is the single synthetic exit.
type CFG struct {
	Blocks []*Block
	Exit   *Block
}

// Block is a basic block: a maximal sequence of nodes executed in
// order, ended by a transfer of control.
type Block struct {
	Index int
	Kind  string // "entry", "exit", "if.then", "for.body", ... for debugging
	// Nodes holds the statements and evaluated expressions of the
	// block in execution order. Entries are *ast.Stmt (most
	// statements) or ast.Expr (an if/for/switch condition or range
	// operand evaluated at the end of the block).
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// New builds the CFG of body. mayReturn reports whether a call
// expression can return to its caller; pass nil for "every call
// returns". Use MayReturn(info) for the standard panic/os.Exit/
// log.Fatal* classifier.
func New(body *ast.BlockStmt, mayReturn func(*ast.CallExpr) bool) *CFG {
	if mayReturn == nil {
		mayReturn = func(*ast.CallExpr) bool { return true }
	}
	b := &builder{
		cfg:       &CFG{},
		mayReturn: mayReturn,
		labels:    make(map[string]*labelInfo),
	}
	entry := b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = entry
	b.stmtList(body.List)
	// Fall off the end of the body: implicit return — but only when
	// the end is actually reachable (a body ending in return/panic
	// leaves the builder in a dead block; an edge from it would give
	// Exit a spurious predecessor).
	for _, blk := range b.cfg.Reachable() {
		if blk == b.cur {
			b.edge(b.cur, b.cfg.Exit)
			break
		}
	}
	return b.cfg
}

// MayReturn returns the standard no-return classifier: panic, os.Exit,
// runtime.Goexit and the log.Fatal/log.Panic family (package functions
// and *log.Logger methods) are treated as terminating the path.
func MayReturn(info *types.Info) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "panic" {
				return false
			}
			if fn, ok := info.Uses[fun].(*types.Func); ok {
				return !noReturnFunc(fn)
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				return !noReturnFunc(fn)
			}
		}
		return true
	}
}

// noReturnFunc reports whether fn is a known no-return function.
func noReturnFunc(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	name := fn.Name()
	switch pkg.Path() {
	case "os":
		return name == "Exit"
	case "runtime":
		return name == "Goexit"
	case "log":
		return strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic")
	case "testing":
		// Tests are outside geolint's scope, but fixtures may use
		// these; (*T).Fatal stops the goroutine like Goexit.
		return name == "Fatal" || name == "Fatalf" || name == "SkipNow" || name == "Skip" || name == "Skipf"
	}
	return false
}

// labelInfo tracks the targets of a labeled statement.
type labelInfo struct {
	_break    *Block // labeled break target (after the construct)
	_continue *Block // labeled continue target (loop post/head)
	_goto     *Block // the labeled statement itself
}

type builder struct {
	cfg       *CFG
	cur       *Block
	mayReturn func(*ast.CallExpr) bool

	// Innermost enclosing loop/switch/select targets.
	breakTarget    *Block
	continueTarget *Block

	labels map[string]*labelInfo
	// label pending on the next loop/switch (labeled construct).
	curLabel *labelInfo
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an unconditional edge to to and
// leaves the builder in a fresh unreachable block (for any dead code
// that follows).
func (b *builder) jump(to *Block) {
	b.edge(b.cur, to)
	b.cur = b.newBlock("unreachable")
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.LabeledStmt:
		b.labeledStmt(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		lbl := b.curLabel
		b.curLabel = nil
		b.forStmt(s, lbl)

	case *ast.RangeStmt:
		lbl := b.curLabel
		b.curLabel = nil
		b.rangeStmt(s, lbl)

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, nil)

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Body, s)

	case *ast.SelectStmt:
		b.selectStmt(s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && !b.mayReturn(call) {
			// No-return call: the path ends here, deliberately with no
			// edge to Exit (see package comment).
			b.cur = b.newBlock("unreachable")
		}

	default:
		// Assign, Decl, IncDec, Send, Go, Defer, Empty, ...: straight-line.
		b.add(s)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	if s.Tok == token.FALLTHROUGH {
		// Always the last statement of a case body; switchStmt wires
		// the edge to the next case block structurally.
		b.add(s)
		return
	}
	var target *Block
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				target = li._break
			}
		} else {
			target = b.breakTarget
		}
	case token.CONTINUE:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				target = li._continue
			}
		} else {
			target = b.continueTarget
		}
	case token.GOTO:
		if s.Label != nil {
			li := b.labels[s.Label.Name]
			if li == nil {
				// Forward goto: allocate the label's block now; the
				// labeled statement will adopt it.
				li = &labelInfo{_goto: b.newBlock("label." + s.Label.Name)}
				b.labels[s.Label.Name] = li
			}
			target = li._goto
		}
	}
	b.add(s)
	if target != nil {
		b.jump(target)
	} else {
		b.cur = b.newBlock("unreachable")
	}
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	li := b.labels[s.Label.Name]
	if li == nil {
		li = &labelInfo{_goto: b.newBlock("label." + s.Label.Name)}
		b.labels[s.Label.Name] = li
	}
	// The label's block begins the labeled statement.
	b.jumpTo(li._goto)
	done := b.newBlock("label." + s.Label.Name + ".done")
	li._break = done
	b.curLabel = li
	b.stmt(s.Stmt)
	b.curLabel = nil
	b.jumpTo(done)
}

// jumpTo ends the current block with an edge to, and continues
// building IN to (unlike jump, which continues in a dead block).
func (b *builder) jumpTo(to *Block) {
	b.edge(b.cur, to)
	b.cur = to
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	condBlock := b.cur

	then := b.newBlock("if.then")
	done := b.newBlock("if.done")
	b.edge(condBlock, then)

	b.cur = then
	b.stmt(s.Body)
	b.jumpTo(done)

	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(condBlock, els)
		b.cur = els
		b.stmt(s.Else)
		b.jumpTo(done)
	} else {
		b.edge(condBlock, done)
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt, label *labelInfo) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.jumpTo(head)
	if s.Cond != nil {
		b.add(s.Cond)
		b.edge(head, body)
		b.edge(head, done)
	} else {
		b.edge(head, body) // for {}: only way out is break/return
	}
	if label != nil {
		label._break, label._continue = done, post
	}
	prevB, prevC := b.breakTarget, b.continueTarget
	b.breakTarget, b.continueTarget = done, post
	b.cur = body
	b.stmt(s.Body)
	if s.Post != nil {
		b.jumpTo(post)
		b.add(s.Post)
		b.jump(head)
	} else {
		b.jump(head)
	}
	b.breakTarget, b.continueTarget = prevB, prevC
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label *labelInfo) {
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	// The whole RangeStmt is the head's node: it evaluates the range
	// operand and, per iteration, assigns Key/Value.
	b.jumpTo(head)
	b.add(s)
	b.edge(head, body) // another element
	b.edge(head, done) // exhausted
	if label != nil {
		label._break, label._continue = done, head
	}
	prevB, prevC := b.breakTarget, b.continueTarget
	b.breakTarget, b.continueTarget = done, head
	b.cur = body
	b.stmt(s.Body)
	b.jump(head)
	b.breakTarget, b.continueTarget = prevB, prevC
	b.cur = done
}

// switchStmt handles both expression switches (tag may be nil) and
// type switches (ts non-nil). The model is conservative: the head
// block evaluates Init and the tag, then branches to every case body.
func (b *builder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, ts *ast.TypeSwitchStmt) {
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if ts != nil {
		b.add(ts.Assign)
	}
	head := b.cur
	done := b.newBlock("switch.done")
	if b.curLabel != nil {
		b.curLabel._break = done
		b.curLabel = nil
	}
	prevB := b.breakTarget
	b.breakTarget = done

	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock("switch.case")
		b.edge(head, blk)
		caseBlocks = append(caseBlocks, blk)
		clauses = append(clauses, cc)
	}
	if !hasDefault {
		b.edge(head, done) // no case matched
	}
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		// Case expressions are evaluated (conservatively in the case
		// body block: they may contain calls).
		for _, e := range cc.List {
			b.add(e)
		}
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(caseBlocks) {
			b.jump(caseBlocks[i+1])
		} else {
			b.jumpTo(done)
		}
	}
	b.breakTarget = prevB
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	// The head evaluates the comm operands; each clause's Comm
	// statement is re-added in its own block, where its effect (the
	// receive/send actually happening) belongs.
	head := b.cur
	done := b.newBlock("select.done")
	if b.curLabel != nil {
		b.curLabel._break = done
		b.curLabel = nil
	}
	prevB := b.breakTarget
	b.breakTarget = done
	anyBody := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		anyBody = true
		blk := b.newBlock("select.comm")
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jumpTo(done)
	}
	if !anyBody {
		// select {} blocks forever: no successor.
		b.cur = b.newBlock("unreachable")
		b.breakTarget = prevB
		return
	}
	b.breakTarget = prevB
	b.cur = done
}

// Reachable returns the blocks reachable from entry, in index order.
func (g *CFG) Reachable() []*Block {
	seen := make([]bool, len(g.Blocks))
	var stack []*Block
	if len(g.Blocks) > 0 {
		stack = append(stack, g.Blocks[0])
		seen[0] = true
	}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	var out []*Block
	for i, blk := range g.Blocks {
		if seen[i] {
			out = append(out, blk)
		}
	}
	return out
}
