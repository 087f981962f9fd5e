package lint

import (
	"go/ast"

	"geofootprint/internal/lint/analysis"
)

// FootprintRead keeps the one row layout honest. A database holds its
// regions and norms only in chunks; FootprintDB's AoS Footprints field
// and its Norms column are exports the store never reads — Footprints
// is nil on a database opened from a columnar snapshot (store.Open,
// the server's load path), and the first write to any database sets
// both to nil, as does every epoch — so a reader that ranges or
// indexes one sees zero users, or panics. Every row read outside
// internal/store goes through FootprintDB.Row, AppendRow or RowLen and
// every norm read through Norm, which read the chunks; the analyzer
// flags, outside FootprintDB's defining package, every read of either
// field — indexing, ranging, len, passing it on. Writes are
// sortedfootprint's to report and are left alone here. Test files are
// never linted, so tests may still inspect the fields of a database
// they built.
var FootprintRead = &analysis.Analyzer{
	Name: "footprintread",
	Doc: "flag reads of FootprintDB.Footprints and FootprintDB.Norms outside internal/store; a written database " +
		"keeps both nil — read rows through Row, AppendRow or RowLen, and norms through Norm",
	Run: runFootprintRead,
}

// exportUse names the accessor that replaces a read of each export
// field.
var exportUse = map[string]string{
	"Footprints": "Row, AppendRow or RowLen",
	"Norms":      "Norm",
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
			if !ok || exportUse[sel.Sel.Name] == "" || writes[sel] || !isForeignFootprintDB(pass, sel) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"read of FootprintDB.%s outside its defining package: a written database keeps it nil; use %s",
				sel.Sel.Name, exportUse[sel.Sel.Name])
			return true
		})
	}
	return nil
}
