package lint

import (
	"go/ast"

	"geofootprint/internal/lint/analysis"
)

// SortedFootprint makes the store invariants a compile-time report
// instead of (only) a `-tags strictsort` runtime panic. FootprintDB's
// parallel slices — IDs, Footprints, Norms — and the per-user
// sketches its Sketch accessor returns are kept index-aligned,
// MinX-sorted (Footprints) and norm/sketch-consistent by the store
// mutation API (Upsert, AppendRoIs, Remove, ComputeNorms). A direct
// write from any other package can silently break the sorted fast path
// of Algorithm 4 or desynchronise norms and sketches from footprints —
// and a sketch lives in a chunk that published epochs share — so the
// analyzer flags, outside FootprintDB's defining package:
//
//   - assignments through db.<slice> or db.Sketch(u) (including element
//     and sub-element writes and compound assignment);
//   - append with either as the destination.
//
// Reads — indexing, ranging, passing slices to the similarity kernels
// — are untouched.
var SortedFootprint = &analysis.Analyzer{
	Name: "sortedfootprint",
	Doc: "flag direct writes to FootprintDB's parallel slices outside internal/store; " +
		"mutations must go through the invariant-preserving store API",
	Run: runSortedFootprint,
}

// dbSliceFields are the invariant-bearing parallel slices of
// store.FootprintDB.
var dbSliceFields = map[string]bool{
	"IDs":        true,
	"Footprints": true,
	"Norms":      true,
}

// dbRowAccessors are the FootprintDB methods that return a pointer into
// its stored rows.
var dbRowAccessors = map[string]bool{
	"Sketch": true,
}

func runSortedFootprint(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		eachWriteTarget(pass, file, func(e ast.Expr) { reportDBWrite(pass, e) })
	}
	return nil
}

// eachWriteTarget calls fn with every expression file writes through:
// assignment and inc/dec left-hand sides and append destinations.
func eachWriteTarget(pass *analysis.Pass, file *ast.File, fn func(ast.Expr)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				fn(lhs)
			}
		case *ast.IncDecStmt:
			fn(n.X)
		case *ast.CallExpr:
			if isBuiltin(pass.TypesInfo, n, "append") && len(n.Args) > 0 {
				fn(n.Args[0])
			}
		}
		return true
	})
}

// reportDBWrite flags e when it writes into a FootprintDB parallel
// slice defined outside the current package.
func reportDBWrite(pass *analysis.Pass, e ast.Expr) {
	sel := dbSliceSelector(pass, e)
	if sel == nil {
		return
	}
	pass.Reportf(e.Pos(),
		"direct write to FootprintDB.%s outside its defining package bypasses the MinX-sorted/aligned-slices invariant; use the store mutation API",
		sel.Sel.Name)
}

// dbSliceSelector peels indexing/slicing/derefs off e and returns the
// underlying db.<slice> selector, or the db.Sketch of a db.Sketch(u)
// call, when db is a store.FootprintDB from another package.
func dbSliceSelector(pass *analysis.Pass, e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			fun, ok := x.Fun.(*ast.SelectorExpr)
			if ok && dbRowAccessors[fun.Sel.Name] && isForeignFootprintDB(pass, fun) {
				return fun
			}
			return nil
		case *ast.SelectorExpr:
			if dbSliceFields[x.Sel.Name] && isForeignFootprintDB(pass, x) {
				return x
			}
			e = x.X
		default:
			return nil
		}
	}
}

func isForeignFootprintDB(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	named := namedOrPointee(t)
	if named == nil || named.Obj().Name() != "FootprintDB" {
		return false
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg() != pass.Pkg
}
