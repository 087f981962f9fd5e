package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"geofootprint/internal/lint/analysis"
	"geofootprint/internal/lint/cfg"
	"geofootprint/internal/lint/dataflow"
)

// flowleak.go is the engine behind the flow-sensitive leak analyzer
// (bodyclose): a forward may-leak dataflow over the internal/lint/cfg
// graph. The analyzer's part is a leakSpec — what counts as acquiring
// the resource, what counts as releasing it, and the report wording;
// everything else (aliasing, escape discharge, nil- and err-branch
// refinement, defer handling, fixpoint, exit-join reporting) lives
// here.
//
// The obligation model: an acquire site creates an obligation keyed by
// its source position, held by one or more local variables (aliases
// accumulate: `v := resp` and `b := resp.Body` both hold resp's
// obligation, the latter with a distinct holder kind so the release
// matcher knows `b.Close()` and `resp.Body.Close()` are the same
// discharge). An obligation is discharged by:
//
//   - a release call on any holder (including `defer x.Close()` —
//     from that program point on, every exit runs it — and releases
//     inside a deferred or spawned function literal);
//   - escape: a holder returned to the caller, passed as a call
//     argument, stored into a field/slice/map/channel, or its address
//     taken. Responsibility conservatively transfers with the value;
//   - branch refinement: on the edge where the holder is known nil, or
//     where the error paired with the acquire is known non-nil, there
//     is nothing to release.
//
// Paths that end in panic/os.Exit/log.Fatal* never reach the Exit
// block (see internal/lint/cfg) and are not leak paths: deferred
// releases run during unwinding, and os.Exit forfeits the process.
// An obligation alive on any path into Exit is reported at its
// acquire site.

// holderKind distinguishes a variable holding the resource itself from
// one holding a derived sub-object with its own release form
// (*http.Response vs its .Body).
type holderKind uint8

const (
	holderResource holderKind = iota
	holderDerived             // e.g. b := resp.Body
)

// leakSpec is one analyzer's parameterization of the engine.
type leakSpec struct {
	// isResourceType reports whether a call-result type is the tracked
	// resource; every call returning one creates an obligation.
	isResourceType func(t types.Type) bool
	// releaseIdent recognizes a release call structurally and returns
	// the holder ident plus the holder kind it applies to; ok=false
	// when the call is not a release form.
	releaseIdent func(call *ast.CallExpr) (id *ast.Ident, kind holderKind, ok bool)
	// deriveSel reports whether selecting sel.Sel from a resource
	// holder yields a derived holder (e.g. Body). nil when the
	// resource has no derived form.
	deriveSel func(name string) bool
	// discardMsg is reported when an acquire's resource result is
	// discarded outright (expression statement or blank identifier).
	discardMsg string
	// leakMsg is reported at an acquire whose obligation survives to
	// some function exit.
	leakMsg string
	// reacquireMsg is reported when a variable holding a live
	// obligation is overwritten by a new acquire (the old resource can
	// no longer be released through it).
	reacquireMsg string
}

// oblig is one open obligation: the variables that can still discharge
// it and the error variable paired with its acquire, if any.
type oblig struct {
	holders map[types.Object]holderKind
	errObj  types.Object
}

// leakFact maps acquire position → open obligation. Treated as
// immutable; all mutations copy.
type leakFact map[token.Pos]*oblig

func (f leakFact) clone() leakFact {
	out := make(leakFact, len(f)+1)
	for k, v := range f {
		out[k] = v
	}
	return out
}

func cloneOblig(o *oblig) *oblig {
	h := make(map[types.Object]holderKind, len(o.holders)+1)
	for k, v := range o.holders {
		h[k] = v
	}
	return &oblig{holders: h, errObj: o.errObj}
}

func leakJoin(a, b leakFact) leakFact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := a.clone()
	for pos, ob := range b {
		cur, ok := out[pos]
		if !ok {
			out[pos] = ob
			continue
		}
		// Same acquire reached along two paths with (possibly)
		// different alias sets: union the holders.
		merged := cloneOblig(cur)
		for obj, k := range ob.holders {
			merged.holders[obj] = k
		}
		if merged.errObj == nil {
			merged.errObj = ob.errObj
		}
		out[pos] = merged
	}
	return out
}

func leakEqual(a, b leakFact) bool {
	if len(a) != len(b) {
		return false
	}
	for pos, ao := range a {
		bo, ok := b[pos]
		if !ok || len(ao.holders) != len(bo.holders) {
			return false
		}
		for obj, k := range ao.holders {
			if bk, ok := bo.holders[obj]; !ok || bk != k {
				return false
			}
		}
	}
	return true
}

// leakEngine runs one spec over one function body.
type leakEngine struct {
	pass *analysis.Pass
	spec *leakSpec
	body *ast.BlockStmt
	seen map[string]bool // dedup for in-transfer reports across fixpoint iterations
}

// runLeakAnalyzer applies spec to every function declaration and
// function literal in the package, each as its own intraprocedural
// problem.
func runLeakAnalyzer(pass *analysis.Pass, spec *leakSpec) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body != nil {
				e := &leakEngine{pass: pass, spec: spec, body: body, seen: make(map[string]bool)}
				e.run()
			}
			return true
		})
	}
	return nil
}

func (e *leakEngine) run() {
	g := cfg.New(e.body, cfg.MayReturn(e.pass.TypesInfo))
	p := dataflow.Problem[leakFact]{
		Entry:    nil,
		Join:     leakJoin,
		Equal:    leakEqual,
		Transfer: e.transfer,
		Branch:   e.branchWithErr,
	}
	r := dataflow.Forward(g, p)
	exit, ok := r.ExitFact(p)
	if !ok {
		return
	}
	for pos := range exit {
		e.reportOnce(pos, e.spec.leakMsg)
	}
}

func (e *leakEngine) reportOnce(pos token.Pos, msg string) {
	key := e.pass.Fset.Position(pos).String() + "\x00" + msg
	if e.seen[key] {
		return
	}
	e.seen[key] = true
	e.pass.Reportf(pos, "%s", msg)
}

// localObj resolves id to its object and reports whether it is
// declared inside the analyzed body — obligations are only tracked
// through function-local variables; writes through captured variables
// escape.
func (e *leakEngine) localObj(id *ast.Ident) (types.Object, bool) {
	if id == nil || id.Name == "_" {
		return nil, false
	}
	obj := e.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return nil, false
	}
	local := obj.Pos() >= e.body.Pos() && obj.Pos() < e.body.End()
	return obj, local
}

// resourceResults returns the result positions of call whose type is
// the spec's resource, and the position of an error result if any.
// A call with no resource result yields no positions.
func (e *leakEngine) resourceResults(call *ast.CallExpr) (res []int, errPos int) {
	errPos = -1
	t := e.pass.TypesInfo.TypeOf(call)
	if t == nil {
		return nil, -1
	}
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if e.spec.isResourceType(t.At(i).Type()) {
				res = append(res, i)
			} else if isErrorType(t.At(i).Type()) {
				errPos = i
			}
		}
	default:
		if e.spec.isResourceType(t) {
			res = []int{0}
		}
	}
	return res, errPos
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// ---- transfer ----

func (e *leakEngine) transfer(n ast.Node, f leakFact) leakFact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return e.assign(n.Lhs, n.Rhs, f)

	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return f
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			lhs := make([]ast.Expr, len(vs.Names))
			for i, name := range vs.Names {
				lhs[i] = name
			}
			f = e.assign(lhs, vs.Values, f)
		}
		return f

	case *ast.ReturnStmt:
		for _, res := range n.Results {
			f = e.scan(res, true, f)
		}
		return f

	case *ast.DeferStmt:
		return e.deferOrGo(n.Call, f)
	case *ast.GoStmt:
		return e.deferOrGo(n.Call, f)

	case *ast.SendStmt:
		f = e.scan(n.Chan, false, f)
		return e.scan(n.Value, true, f)

	case *ast.ExprStmt:
		// A discarded acquire (results never bound) leaks immediately.
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if res, _ := e.resourceResults(call); len(res) > 0 {
				e.reportOnce(call.Pos(), e.spec.discardMsg)
			}
		}
		return e.scan(n.X, false, f)

	case *ast.RangeStmt:
		// Head node of a range loop: only the operand is evaluated
		// here; the body has its own blocks.
		return e.scan(n.X, false, f)

	case *ast.IncDecStmt:
		return e.scan(n.X, false, f)

	case ast.Expr:
		// A condition evaluated at the end of a block.
		return e.scan(n, false, f)
	}
	return f
}

// assign handles both `x, err := call()` (tuple form) and 1:1
// assignment lists, threading acquires, aliases, rebinds and escapes.
func (e *leakEngine) assign(lhs, rhs []ast.Expr, f leakFact) leakFact {
	// Tuple form: one call, many results.
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			if res, errPos := e.resourceResults(call); len(res) > 0 {
				f = e.scan(call, false, f)
				return e.bindAcquire(call, lhs, res, errPos, f)
			}
		}
		for _, l := range lhs {
			f = e.rebind(l, f)
		}
		return e.scan(rhs[0], false, f)
	}

	for i := range rhs {
		var l ast.Expr
		if i < len(lhs) {
			l = lhs[i]
		}
		f = e.assignOne(l, rhs[i], f)
	}
	return f
}

func (e *leakEngine) assignOne(lhs, rhs ast.Expr, f leakFact) leakFact {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if res, errPos := e.resourceResults(call); len(res) > 0 {
			f = e.scan(call, false, f)
			return e.bindAcquire(call, []ast.Expr{lhs}, res, errPos, f)
		}
	}

	// `_ = x` is a no-op: it neither releases nor escapes.
	if lid, ok := lhs.(*ast.Ident); ok && lid.Name == "_" {
		if _, ok := ast.Unparen(rhs).(*ast.Ident); ok {
			return f
		}
	}

	// Alias forms: v := x (same resource) and v := x.Body (derived).
	if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
		if srcObj := e.pass.TypesInfo.ObjectOf(id); srcObj != nil {
			if pos, ob := findHolder(f, srcObj, holderResource); ob != nil {
				if lid, ok := lhs.(*ast.Ident); ok {
					if dst, local := e.localObj(lid); local {
						return addHolder(f, pos, dst, holderResource)
					}
					// Assigned to a captured or package-level variable:
					// the resource escapes this function.
					return discharge(f, pos)
				}
				// Stored into a field/element: escapes.
				f = discharge(f, pos)
				return e.rebindOrEscape(lhs, f)
			}
		}
	}
	if sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr); ok && e.spec.deriveSel != nil && e.spec.deriveSel(sel.Sel.Name) {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if srcObj := e.pass.TypesInfo.ObjectOf(id); srcObj != nil {
				if pos, ob := findHolder(f, srcObj, holderResource); ob != nil {
					if lid, ok := lhs.(*ast.Ident); ok {
						if dst, local := e.localObj(lid); local {
							return addHolder(f, pos, dst, holderDerived)
						}
						return discharge(f, pos)
					}
					f = discharge(f, pos)
				}
			}
		}
	}

	f = e.scan(rhs, true, f)
	return e.rebindOrEscape(lhs, f)
}

// bindAcquire installs the obligation for an acquire call whose
// results bind to lhs (len(lhs) may exceed the result count only in
// the tuple form, where positions line up 1:1).
func (e *leakEngine) bindAcquire(call *ast.CallExpr, lhs []ast.Expr, res []int, errPos int, f leakFact) leakFact {
	var errObj types.Object
	if errPos >= 0 && errPos < len(lhs) {
		if id, ok := lhs[errPos].(*ast.Ident); ok && id.Name != "_" {
			errObj = e.pass.TypesInfo.ObjectOf(id)
		}
	}
	for _, ri := range res {
		var target *ast.Ident
		if ri < len(lhs) {
			target, _ = lhs[ri].(*ast.Ident)
		}
		if target == nil || target.Name == "_" {
			// The resource result is structurally discarded.
			e.reportOnce(call.Pos(), e.spec.discardMsg)
			continue
		}
		obj, local := e.localObj(target)
		if obj == nil || !local {
			// Acquired straight into a captured/global variable:
			// responsibility escapes this function.
			continue
		}
		// Overwriting a variable that still holds a live obligation
		// orphans the old resource. A same-position hit is the loop
		// back edge re-running this very acquire: the per-iteration
		// leak is already covered by the exit report.
		if pos, ob := findHolder(f, obj, holderResource); ob != nil && len(ob.holders) == 1 {
			if pos != call.Pos() {
				e.reportOnce(call.Pos(), e.spec.reacquireMsg)
			}
			f = discharge(f, pos)
		} else if ob != nil {
			// Other aliases can still release it; just drop this one.
			f = dropHolder(f, pos, obj)
		}
		nf := f.clone()
		nf[call.Pos()] = &oblig{holders: map[types.Object]holderKind{obj: holderResource}, errObj: errObj}
		f = nf
	}
	return f
}

// rebind drops lhs (an ident being overwritten by a non-resource
// value) from any obligation it holds; if it was the last holder the
// obligation stays open — the resource is orphaned and will be
// reported at exit.
func (e *leakEngine) rebind(lhs ast.Expr, f leakFact) leakFact {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return f
	}
	obj := e.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return f
	}
	for _, kind := range []holderKind{holderResource, holderDerived} {
		if pos, ob := findHolder(f, obj, kind); ob != nil && len(ob.holders) > 1 {
			f = dropHolder(f, pos, obj)
		}
		// Last holder: keep the obligation open under this object —
		// releases through the new value are impossible, and the exit
		// report points at the original acquire.
	}
	return f
}

func (e *leakEngine) rebindOrEscape(lhs ast.Expr, f leakFact) leakFact {
	if lhs == nil {
		return f
	}
	if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return e.rebind(lhs, f)
	}
	// Assignment target with sub-expressions (a[i], s.f): scan them as
	// reads.
	return e.scan(lhs, false, f)
}

// deferOrGo applies a deferred or spawned call: releases through it
// count (defer runs at every subsequent exit; a goroutine owns what it
// captures), and resources passed to it escape.
func (e *leakEngine) deferOrGo(call *ast.CallExpr, f leakFact) leakFact {
	if id, kind, ok := e.spec.releaseIdent(call); ok {
		if obj := e.pass.TypesInfo.ObjectOf(id); obj != nil {
			if pos, ob := findHolder(f, obj, kind); ob != nil {
				return discharge(f, pos)
			}
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Scan the literal's entire body for release calls on tracked
		// holders: `defer func() { resp.Body.Close() }()`.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, kind, ok := e.spec.releaseIdent(inner); ok {
				if obj := e.pass.TypesInfo.ObjectOf(id); obj != nil {
					if pos, ob := findHolder(f, obj, kind); ob != nil {
						f = discharge(f, pos)
					}
				}
			}
			return true
		})
		return f
	}
	return e.scan(call, false, f)
}

// scan walks an expression, applying releases and escapes. escaping
// marks value context: a tracked ident used as a value there transfers
// responsibility (call argument, return value, composite literal
// element, channel send, address-of).
func (e *leakEngine) scan(x ast.Expr, escaping bool, f leakFact) leakFact {
	switch x := x.(type) {
	case nil:
		return f

	case *ast.Ident:
		if !escaping {
			return f
		}
		if obj := e.pass.TypesInfo.ObjectOf(x); obj != nil {
			for _, kind := range []holderKind{holderResource, holderDerived} {
				if pos, ob := findHolder(f, obj, kind); ob != nil {
					f = discharge(f, pos)
				}
			}
		}
		return f

	case *ast.ParenExpr:
		return e.scan(x.X, escaping, f)

	case *ast.SelectorExpr:
		// Receiver/field access reads the base; it does not escape.
		// But a derived sub-object used as a value does: f(resp.Body).
		if escaping && e.spec.deriveSel != nil && e.spec.deriveSel(x.Sel.Name) {
			// Passing resp.Body to an arbitrary function does NOT
			// discharge: readers do not close. Keep the obligation.
			return e.scan(x.X, false, f)
		}
		return e.scan(x.X, false, f)

	case *ast.CallExpr:
		if id, kind, ok := e.spec.releaseIdent(x); ok {
			if obj := e.pass.TypesInfo.ObjectOf(id); obj != nil {
				if pos, ob := findHolder(f, obj, kind); ob != nil {
					f = discharge(f, pos)
					// Arguments of a release call still get scanned.
					for _, arg := range x.Args {
						f = e.scan(arg, true, f)
					}
					return f
				}
			}
		}
		f = e.scan(x.Fun, false, f)
		for _, arg := range x.Args {
			f = e.scan(arg, true, f)
		}
		return f

	case *ast.BinaryExpr:
		// Comparisons and arithmetic read their operands.
		f = e.scan(x.X, false, f)
		return e.scan(x.Y, false, f)

	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return e.scan(x.X, true, f) // address taken: escapes
		}
		return e.scan(x.X, false, f)

	case *ast.StarExpr:
		return e.scan(x.X, false, f)

	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			f = e.scan(elt, true, f)
		}
		return f

	case *ast.KeyValueExpr:
		f = e.scan(x.Key, false, f)
		return e.scan(x.Value, true, f)

	case *ast.IndexExpr:
		f = e.scan(x.X, false, f)
		return e.scan(x.Index, false, f)

	case *ast.IndexListExpr:
		return e.scan(x.X, false, f)

	case *ast.SliceExpr:
		f = e.scan(x.X, false, f)
		f = e.scan(x.Low, false, f)
		f = e.scan(x.High, false, f)
		return e.scan(x.Max, false, f)

	case *ast.TypeAssertExpr:
		return e.scan(x.X, escaping, f)

	case *ast.FuncLit:
		// Analyzed separately as its own function; what it captures is
		// visible to this function only through the statements that
		// call or defer it.
		return f
	}
	return f
}

// branch refines the fact on a condition edge: on the edge where a
// holder is nil, or where the paired error is non-nil, the obligation
// cannot exist.
func (e *leakEngine) branch(cond ast.Expr, taken bool, f leakFact) leakFact {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return f
	}
	var idExpr ast.Expr
	switch {
	case isNilIdent(e.pass.TypesInfo, be.Y):
		idExpr = be.X
	case isNilIdent(e.pass.TypesInfo, be.X):
		idExpr = be.Y
	default:
		return f
	}
	id, ok := ast.Unparen(idExpr).(*ast.Ident)
	if !ok {
		return f
	}
	obj := e.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return f
	}
	isNilEdge := (be.Op == token.EQL && taken) || (be.Op == token.NEQ && !taken)

	// Holder known nil: nothing to release on this edge.
	if isNilEdge {
		for _, kind := range []holderKind{holderResource, holderDerived} {
			if pos, ob := findHolder(f, obj, kind); ob != nil {
				f = discharge(f, pos)
			}
		}
	}
	return f
}

// branchWithErr extends branch with the error-pairing refinement;
// split out because the "err is non-nil" edge is the NEQ-taken/
// EQL-not-taken side — the opposite of the holder-nil side.
func (e *leakEngine) branchWithErr(cond ast.Expr, taken bool, f leakFact) leakFact {
	f = e.branch(cond, taken, f)
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return f
	}
	var idExpr ast.Expr
	switch {
	case isNilIdent(e.pass.TypesInfo, be.Y):
		idExpr = be.X
	case isNilIdent(e.pass.TypesInfo, be.X):
		idExpr = be.Y
	default:
		return f
	}
	id, ok := ast.Unparen(idExpr).(*ast.Ident)
	if !ok {
		return f
	}
	obj := e.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return f
	}
	errNonNilEdge := (be.Op == token.NEQ && taken) || (be.Op == token.EQL && !taken)
	if !errNonNilEdge {
		return f
	}
	for pos, ob := range f {
		if ob.errObj != nil && ob.errObj == obj {
			f = discharge(f, pos)
		}
	}
	return f
}

func isNilIdent(info *types.Info, x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

// ---- fact helpers ----

// findHolder returns the obligation (and its key) that obj holds with
// the given kind, or nil.
func findHolder(f leakFact, obj types.Object, kind holderKind) (token.Pos, *oblig) {
	for pos, ob := range f {
		if k, ok := ob.holders[obj]; ok && k == kind {
			return pos, ob
		}
	}
	return token.NoPos, nil
}

func discharge(f leakFact, pos token.Pos) leakFact {
	if _, ok := f[pos]; !ok {
		return f
	}
	out := make(leakFact, len(f))
	for k, v := range f {
		if k != pos {
			out[k] = v
		}
	}
	return out
}

func addHolder(f leakFact, pos token.Pos, obj types.Object, kind holderKind) leakFact {
	ob, ok := f[pos]
	if !ok || obj == nil {
		return f
	}
	nf := f.clone()
	nob := cloneOblig(ob)
	nob.holders[obj] = kind
	nf[pos] = nob
	return nf
}

func dropHolder(f leakFact, pos token.Pos, obj types.Object) leakFact {
	ob, ok := f[pos]
	if !ok {
		return f
	}
	if _, has := ob.holders[obj]; !has {
		return f
	}
	nf := f.clone()
	nob := cloneOblig(ob)
	delete(nob.holders, obj)
	nf[pos] = nob
	return nf
}
