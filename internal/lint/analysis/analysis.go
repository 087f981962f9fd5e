// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface that geolint's analyzers
// are written against.
//
// The container this repo builds in has no module proxy access and an
// empty module cache, so the real x/tools framework cannot be
// vendored. Rather than give up the analyzer discipline, geolint
// defines the same shapes — Analyzer, Pass, Diagnostic — with the same
// field names and semantics, so each analyzer's Run function is
// line-for-line portable to the upstream framework (and to `go vet
// -vettool`) the day the dependency becomes available. Only the
// driver (internal/lint/loader plus lint.Run) is bespoke.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name, a human-readable
// contract, and the function that applies it to a package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore <name> suppression directives.
	Name string
	// Doc states the invariant the analyzer enforces and why.
	Doc string
	// Run applies the analyzer to a single type-checked package,
	// reporting violations through pass.Report.
	Run func(*Pass) error
	// RunProgram, set instead of Run, applies a whole-program analyzer
	// to every package of a run at once, reporting through each
	// package's own Pass. Upstream expresses such checks with facts;
	// this is the one place the mirror departs from its API.
	RunProgram func([]*Pass) error
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers a diagnostic to the driver, which applies
	// //lint:ignore suppression before surfacing it.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
