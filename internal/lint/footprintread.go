package lint

import (
	"go/ast"

	"geofootprint/internal/lint/analysis"
)

// FootprintRead keeps the one row layout honest. A database holds its
// regions only in chunked columns; FootprintDB's AoS Footprints field
// is an export the store never reads — nil on a database opened from a
// columnar snapshot (store.Open, the server's load path), and set to
// nil by the first write to any database — so a reader that ranges or
// indexes it sees zero users, or panics. Every row read outside
// internal/store goes through FootprintDB.Row, AppendRow or RowLen,
// which read the chunks; the analyzer flags,
// outside FootprintDB's defining package, every read of the Footprints
// field — indexing, ranging, len, passing it on. Writes are
// sortedfootprint's to report and are left alone here. Test files are
// never linted, so tests may still inspect the field of a database
// they built.
var FootprintRead = &analysis.Analyzer{
	Name: "footprintread",
	Doc: "flag reads of FootprintDB.Footprints outside internal/store; an opened or written database keeps it nil — " +
		"read rows through Row, AppendRow or RowLen",
	Run: runFootprintRead,
}

func runFootprintRead(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		// The selectors sortedfootprint reports as write targets.
		writes := map[*ast.SelectorExpr]bool{}
		eachWriteTarget(pass, file, func(e ast.Expr) {
			if sel := dbSliceSelector(pass, e); sel != nil {
				writes[sel] = true
			}
		})
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Footprints" || writes[sel] || !isForeignFootprintDB(pass, sel) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"read of FootprintDB.Footprints outside its defining package: an opened or written database keeps it nil; use Row, AppendRow or RowLen")
			return true
		})
	}
	return nil
}
