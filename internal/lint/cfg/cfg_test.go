package cfg

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// buildCFG type-checks one function body from src (a complete file)
// and builds its CFG with the standard no-return classifier.
func buildCFG(t *testing.T, src, fn string) (*CFG, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Uses: make(map[*ast.Ident]types.Object),
		Defs: make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	// Type errors are tolerated: the builder only needs Uses for the
	// no-return classifier.
	conf.Check("x", fset, []*ast.File{f}, info)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if ok && fd.Name.Name == fn {
			return New(fd.Body, MayReturn(info)), fset
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil, nil
}

// exitReachableFrom reports whether Exit is reachable from entry.
func exitReachable(g *CFG) bool {
	for _, blk := range g.Reachable() {
		if blk == g.Exit {
			return true
		}
	}
	return false
}

// stmtAt returns the reachable block containing a node whose source
// text starts with prefix, or nil.
func blockWith(g *CFG, fset *token.FileSet, src, prefix string) *Block {
	for _, blk := range g.Reachable() {
		for _, n := range blk.Nodes {
			start := fset.Position(n.Pos()).Offset
			end := fset.Position(n.End()).Offset
			if start >= 0 && end <= len(src) && strings.HasPrefix(src[start:end], prefix) {
				return blk
			}
		}
	}
	return nil
}

func TestStraightLine(t *testing.T) {
	src := `package x
func f() int {
	a := 1
	a++
	return a
}`
	g, _ := buildCFG(t, src, "f")
	if !exitReachable(g) {
		t.Fatal("exit not reachable")
	}
	// entry -> exit, one return edge.
	if len(g.Exit.Preds) != 1 {
		t.Fatalf("exit preds = %d, want 1", len(g.Exit.Preds))
	}
}

func TestIfElseBothReachExit(t *testing.T) {
	src := `package x
func f(b bool) int {
	if b {
		return 1
	}
	return 2
}`
	g, fset := buildCFG(t, src, "f")
	if len(g.Exit.Preds) != 2 {
		t.Fatalf("exit preds = %d, want 2 (both returns)", len(g.Exit.Preds))
	}
	cond := blockWith(g, fset, src, "b")
	if cond == nil {
		t.Fatal("condition block not found")
	}
	if len(cond.Succs) != 2 {
		t.Fatalf("cond succs = %d, want 2", len(cond.Succs))
	}
}

func TestPanicPathHasNoExitEdge(t *testing.T) {
	src := `package x
func f(b bool) int {
	if b {
		panic("boom")
	}
	return 2
}`
	g, _ := buildCFG(t, src, "f")
	// Only the return reaches exit; the panic path dead-ends.
	if len(g.Exit.Preds) != 1 {
		t.Fatalf("exit preds = %d, want 1 (panic path must not reach exit)", len(g.Exit.Preds))
	}
}

func TestOsExitAndLogFatalNoReturn(t *testing.T) {
	src := `package x
import (
	"log"
	"os"
)
func f(n int) int {
	switch n {
	case 0:
		os.Exit(1)
	case 1:
		log.Fatalf("bad %d", n)
	}
	return n
}`
	g, _ := buildCFG(t, src, "f")
	// Exit preds: the switch.done fallthrough path only (both case
	// bodies dead-end). done receives head's no-default edge plus two
	// case bodies' unreachable continuations; but only one *reachable*
	// return edge exists into exit.
	reach := map[*Block]bool{}
	for _, blk := range g.Reachable() {
		reach[blk] = true
	}
	n := 0
	for _, p := range g.Exit.Preds {
		if reach[p] {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("reachable exit preds = %d, want 1", n)
	}
}

func TestForLoopShape(t *testing.T) {
	src := `package x
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`
	g, fset := buildCFG(t, src, "f")
	head := blockWith(g, fset, src, "i < n")
	if head == nil || len(head.Succs) != 2 {
		t.Fatalf("loop head malformed: %+v", head)
	}
	if !exitReachable(g) {
		t.Fatal("exit unreachable")
	}
}

func TestInfiniteLoopNoExit(t *testing.T) {
	src := `package x
func f() {
	for {
	}
}`
	g, _ := buildCFG(t, src, "f")
	if exitReachable(g) {
		t.Fatal("exit reachable through for {}")
	}
}

func TestBreakEscapesInfiniteLoop(t *testing.T) {
	src := `package x
func f(b bool) {
	for {
		if b {
			break
		}
	}
}`
	g, _ := buildCFG(t, src, "f")
	if !exitReachable(g) {
		t.Fatal("break did not reach exit")
	}
}

func TestLabeledBreak(t *testing.T) {
	src := `package x
func f(m [][]int) int {
	s := 0
outer:
	for _, row := range m {
		for _, v := range row {
			if v < 0 {
				break outer
			}
			s += v
		}
	}
	return s
}`
	g, _ := buildCFG(t, src, "f")
	if !exitReachable(g) {
		t.Fatal("exit unreachable with labeled break")
	}
}

func TestGotoForwardAndBackward(t *testing.T) {
	src := `package x
func f(b bool) int {
	i := 0
loop:
	i++
	if b {
		goto done
	}
	if i < 10 {
		goto loop
	}
done:
	return i
}`
	g, _ := buildCFG(t, src, "f")
	if !exitReachable(g) {
		t.Fatal("exit unreachable with gotos")
	}
	if len(g.Exit.Preds) != 1 {
		t.Fatalf("exit preds = %d, want 1", len(g.Exit.Preds))
	}
}

func TestSwitchAllCasesJoin(t *testing.T) {
	src := `package x
func f(n int) int {
	s := 0
	switch n {
	case 0:
		s = 1
	case 1:
		s = 2
		fallthrough
	case 2:
		s += 10
	default:
		s = -1
	}
	return s
}`
	g, fset := buildCFG(t, src, "f")
	if !exitReachable(g) {
		t.Fatal("exit unreachable")
	}
	// The fallthrough case body must have the next case body as a
	// successor.
	ft := blockWith(g, fset, src, "s = 2")
	next := blockWith(g, fset, src, "s += 10")
	if ft == nil || next == nil {
		t.Fatal("case blocks not found")
	}
	found := false
	for _, s := range ft.Succs {
		if s == next {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallthrough edge missing from case block b%d", ft.Index)
	}
}

func TestSelectBranches(t *testing.T) {
	src := `package x
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case <-b:
		return 0
	}
}`
	g, _ := buildCFG(t, src, "f")
	if len(g.Exit.Preds) != 2 {
		t.Fatalf("exit preds = %d, want 2", len(g.Exit.Preds))
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	src := `package x
func f() int {
	return 1
	x := 2
	return x
}`
	g, fset := buildCFG(t, src, "f")
	if blk := blockWith(g, fset, src, "x := 2"); blk != nil {
		t.Fatal("statement after return should be unreachable")
	}
}

func TestRangeLoopShape(t *testing.T) {
	src := `package x
func f(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}`
	g, _ := buildCFG(t, src, "f")
	if !exitReachable(g) {
		t.Fatal("exit unreachable")
	}
	var rangeHead *Block
	for _, blk := range g.Reachable() {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				rangeHead = blk
			}
		}
	}
	if rangeHead == nil || len(rangeHead.Succs) != 2 {
		t.Fatalf("range head malformed")
	}
}
