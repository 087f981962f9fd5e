package lint

import (
	"go/ast"
	"go/types"

	"geofootprint/internal/lint/analysis"
)

// BodyClose keeps every *http.Response inside one helper.
//
// The serving plane's HTTP clients — the router's shard fan-out and
// health probes (internal/router), the feed client (cmd/geofeed) and
// the examples — must drain and close every response body on every
// path, or the connection never returns to the Transport's pool. Under
// the router's scatter-gather load the symptom is not an error but a
// slow starvation: each leaked body pins a connection, the pool
// drains, and tail latency climbs until the process runs out of file
// descriptors.
//
// retry.Exchange makes that true by construction: it hands a callback
// the status, header and body and then drains and closes the body
// itself. So the rule is syntactic: any call whose results include an
// *http.Response is a finding unless it is inside retry.Exchange or
// inside a method with http.RoundTripper's RoundTrip signature, which
// forwards the response to its caller (netfault.Transport). A
// discarded `http.Get(url)` is the same finding.
var BodyClose = &analysis.Analyzer{
	Name: "bodyclose",
	Doc:  "only retry.Exchange and RoundTrip methods may acquire an *http.Response",
	Run:  runBodyClose,
}

func runBodyClose(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return !mayHoldResponse(pass, n)
			case *ast.CallExpr:
				if tv := pass.TypesInfo.Types[n.Fun]; !tv.IsType() && returnsResponse(pass.TypesInfo.TypeOf(n)) {
					pass.Reportf(n.Pos(), "call returns an *http.Response outside retry.Exchange; "+
						"exchange through retry.Exchange, which drains and closes the body on every path")
				}
			}
			return true
		})
	}
	return nil
}

// mayHoldResponse reports whether fd is retry.Exchange or a RoundTrip
// method with http.RoundTripper's signature.
func mayHoldResponse(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return fd.Name.Name == "Exchange" && pathHasSegment(pass.Pkg.Path(), "retry")
	}
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fd.Name.Name != "RoundTrip" || fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 1 && isNetHTTPPointer(sig.Params().At(0).Type(), "Request") &&
		sig.Results().Len() == 2 && isNetHTTPPointer(sig.Results().At(0).Type(), "Response") &&
		types.Identical(sig.Results().At(1).Type(), types.Universe.Lookup("error").Type())
}

// returnsResponse reports whether t, a call's type, is or holds an
// *http.Response.
func returnsResponse(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isNetHTTPPointer(tup.At(i).Type(), "Response") {
				return true
			}
		}
		return false
	}
	return isNetHTTPPointer(t, "Response")
}

// isNetHTTPPointer reports whether t is *net/http.<name>.
func isNetHTTPPointer(t types.Type, name string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Name() != name {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "net/http"
}
