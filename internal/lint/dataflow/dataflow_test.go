package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"geofootprint/internal/lint/cfg"
)

// The test problem tracks the set of variable names that "hold a
// resource": `x = acquire()` adds x and `x = release()` removes x.
// Purely syntactic — no type info needed — which keeps the fixture
// functions tiny.

type fact map[string]bool

func union(a, b fact) fact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(fact, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func equal(a, b fact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func without(f fact, name string) fact {
	if !f[name] {
		return f
	}
	out := make(fact, len(f))
	for k := range f {
		if k != name {
			out[k] = true
		}
	}
	return out
}

func with(f fact, name string) fact {
	if f[name] {
		return f
	}
	out := make(fact, len(f)+1)
	for k := range f {
		out[k] = true
	}
	out[name] = true
	return out
}

func transfer(n ast.Node, f fact) fact {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return f
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return f
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return f
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return f
	}
	switch fn.Name {
	case "acquire":
		return with(f, id.Name)
	case "release":
		return without(f, id.Name)
	}
	return f
}

func solve(t *testing.T, body string) (fact, bool) {
	t.Helper()
	src := "package x\nfunc acquire() *int { return nil }\nfunc release() *int { return nil }\nfunc f(b bool, n int) {\n" + body + "\n}"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var fd *ast.FuncDecl
	for _, d := range file.Decls {
		if d, ok := d.(*ast.FuncDecl); ok && d.Name.Name == "f" {
			fd = d
		}
	}
	g := cfg.New(fd.Body, nil)
	p := Problem[fact]{
		Join:     union,
		Equal:    equal,
		Transfer: transfer,
	}
	r := Forward(g, p)
	return r.ExitFact(p)
}

func names(f fact) string {
	var ns []string
	for k := range f {
		ns = append(ns, k)
	}
	sort.Strings(ns)
	return strings.Join(ns, ",")
}

func TestStraightLineAcquireRelease(t *testing.T) {
	f, ok := solve(t, "x := acquire()\nx = release()")
	if !ok {
		t.Fatal("exit unreachable")
	}
	if len(f) != 0 {
		t.Fatalf("held at exit: %s", names(f))
	}
}

func TestLeakOnOnePathJoins(t *testing.T) {
	f, ok := solve(t, "x := acquire()\nif b {\n\tx = release()\n}")
	if !ok {
		t.Fatal("exit unreachable")
	}
	if !f["x"] {
		t.Fatalf("x leaked on the else path but not in exit fact: %s", names(f))
	}
}

func TestBothPathsRelease(t *testing.T) {
	f, _ := solve(t, "x := acquire()\nif b {\n\tx = release()\n} else {\n\tx = release()\n}")
	if len(f) != 0 {
		t.Fatalf("held at exit: %s", names(f))
	}
}

func TestLoopFixpointTerminatesAndJoins(t *testing.T) {
	// The loop body acquires without releasing: the back edge carries
	// the held fact around; fixpoint must terminate and report x held.
	f, _ := solve(t, "for i := 0; i < n; i++ {\n\tx := acquire()\n\t_ = x\n}")
	// x is function-scoped per iteration syntactically, but the fact
	// is name-keyed here: held on exit via the loop-exit edge.
	if !f["x"] {
		t.Fatalf("x not held at exit: %s", names(f))
	}
}

func TestLoopReleaseEachIteration(t *testing.T) {
	f, _ := solve(t, "for i := 0; i < n; i++ {\n\tx := acquire()\n\tx = release()\n}")
	if len(f) != 0 {
		t.Fatalf("held at exit: %s", names(f))
	}
}

func TestUnreachableExit(t *testing.T) {
	_, ok := solve(t, "x := acquire()\n_ = x\nfor {\n}")
	if ok {
		t.Fatal("exit should be unreachable")
	}
}
