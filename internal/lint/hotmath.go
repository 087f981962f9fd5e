package lint

import (
	"go/ast"
	"strings"

	"geofootprint/internal/lint/analysis"
)

// HotMath keeps math.Min and math.Max out of the kernels. On amd64
// both are out-of-line assembly calls — the compiler cannot inline
// them — and a profile of Algorithm 4 showed the four calls per region
// pair making up close to half of every join. The min and max builtins
// return the same bits for every NaN-free input, ±0 and ±Inf included
// (with a NaN operand they return NaN, where math.Max(+Inf, NaN) is
// +Inf and math.Min(-Inf, NaN) is -Inf), and compile to a couple of
// inline instructions, so inside a `//geo:hotpath` function the call
// is a loss wherever NaN is already excluded — which every kernel
// input is, by core.Footprint.Validate.
var HotMath = &analysis.Analyzer{
	Name: "hotmath",
	Doc:  "flag math.Min/math.Max calls inside functions marked //geo:hotpath; the min/max builtins compile inline",
	Run:  runHotMath,
}

func runHotMath(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.TypesInfo, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
					return true
				}
				switch fn.Name() {
				case "Min", "Max":
					pass.Reportf(call.Pos(),
						"math.%s is an out-of-line call in //geo:hotpath function %s; use the %s builtin",
						fn.Name(), fd.Name.Name, strings.ToLower(fn.Name()))
				}
				return true
			})
		}
	}
	return nil
}
