package lint

import (
	"go/ast"
	"go/types"

	"geofootprint/internal/lint/analysis"
)

// EpochMut guards PR 6's MVCC contract: a database reached through an
// Epoch (a published, immutable snapshot) or through an EpochBuilder's
// DB() accessor must never be mutated directly. Published epochs are
// read lock-free by concurrent queries, and the builder's database is
// aliased by every snapshot frozen from it — an in-place mutation
// outside the builder's copy-on-write methods is a data race on the
// serving hot path that -race only catches when a query happens to
// look. The analyzer flags, outside the Epoch types' defining package
// (internal/store):
//
//   - calls to a mutating FootprintDB method (Upsert, AppendRoIs,
//     Remove, ComputeNorms, EnableSketches, DisableSketches) whose
//     receiver is `x.DB()` for an Epoch or EpochBuilder x;
//   - the same calls on a local variable assigned (possibly through a
//     chain of local aliases) from such a `DB()` call.
//
// Reads (Len, IndexOf, TopK via the engine, EncodeTo) are untouched,
// and mutation through the EpochBuilder's own methods — the one legal
// seam, which copy-on-writes and republishes — is what the diagnostic
// points to.
var EpochMut = &analysis.Analyzer{
	Name: "epochmut",
	Doc: "flag direct mutation of epoch-published databases outside internal/store; " +
		"published epochs are immutable — mutate through an EpochBuilder and republish",
	Run: runEpochMut,
}

// footprintDBMutators are the FootprintDB methods that mutate the
// database in place.
var footprintDBMutators = map[string]bool{
	"Upsert":          true,
	"AppendRoIs":      true,
	"Remove":          true,
	"ComputeNorms":    true,
	"EnableSketches":  true,
	"DisableSketches": true,
}

// epochTypes are the internal/store types whose DB() yields
// epoch-published (or snapshot-aliased) state.
var epochTypes = map[string]bool{
	"Epoch":        true,
	"EpochBuilder": true,
}

func runEpochMut(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkEpochMutFunc(pass, fn.Body)
		}
	}
	return nil
}

// checkEpochMutFunc analyzes one function body: first propagate
// "derived from <epoch>.DB()" through local assignment chains to a
// fixed point, then report mutating method calls on tainted values.
func checkEpochMutFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	tainted := map[types.Object]bool{}
	isEpochDB := func(e ast.Expr) bool {
		if epochDBCall(pass, e) {
			return true
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			return tainted[pass.TypesInfo.ObjectOf(id)]
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !isEpochDB(as.Rhs[i]) {
					continue
				}
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !footprintDBMutators[sel.Sel.Name] {
			return true
		}
		if !isForeignFootprintDB(pass, sel) || !isEpochDB(sel.X) {
			return true
		}
		pass.Reportf(call.Pos(),
			"mutating call FootprintDB.%s on an epoch-published database; published epochs are immutable and read lock-free — mutate through an EpochBuilder and republish",
			sel.Sel.Name)
		return true
	})
}

// epochDBCall reports whether e is `x.DB()` for an Epoch or
// EpochBuilder x defined outside the current package.
func epochDBCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "DB" {
		return false
	}
	named := namedOrPointee(pass.TypesInfo.TypeOf(sel.X))
	if named == nil || !epochTypes[named.Obj().Name()] {
		return false
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg() != pass.Pkg
}
