// Package lint is geolint: the suite of custom analyzers that machine-
// check the invariants this repo's correctness and performance rest
// on, so that rules which previously lived in review comments fail
// `make check` instead. Each analyzer encodes one incident or one
// pinned property:
//
//   - floatrange      — PR 3's ULP-drift bug class: float accumulation
//     in map iteration order is non-deterministic.
//   - atomicwrite     — PR 3's truncated-checkpoint bug class: raw
//     file writes on persistence paths bypass WriteFileAtomicFS.
//   - hotalloc        — PR 1's 0-alloc kernels: allocation sources in
//     //geo:hotpath functions.
//   - hotmath         — math.Min/math.Max in //geo:hotpath functions:
//     out-of-line calls that were half of every Algorithm 4 join; the
//     min/max builtins compile inline.
//   - sortedfootprint — PR 2's strictsort invariant: direct writes to
//     FootprintDB's parallel slices outside internal/store.
//   - footprintread   — the one row layout: reads of
//     FootprintDB.Footprints or FootprintDB.Norms outside
//     internal/store, exports a written database keeps nil; rows and
//     norms are read through Row/AppendRow/RowLen and Norm.
//   - errdiscard      — dropped errors from Sync/Close and the WAL
//     API on durability paths.
//   - ctxcancel       — PR 5's cancellation contract: loops in
//     //geo:cancellable functions must poll ctx.
//   - epochmut        — PR 6's MVCC contract: databases reached
//     through an Epoch or EpochBuilder's DB() are read lock-free and
//     must not be mutated outside internal/store's builder seam.
//   - colwrite        — PR 7's columnar-snapshot contract: a
//     colstore.Snapshot encode on a persistence path must go through
//     the WriteColumnar atomic writer seam, never a raw writer.
//   - testonly        — code no binary runs: an exported name in an
//     internal/ package whose every reference is in a _test.go file
//     or its own body. A facade alias does not exempt its target's
//     methods. The one whole-program analyzer (testonly.go).
//
// Suppression: a diagnostic is suppressed by a comment
// `//lint:ignore <analyzer> <reason>` on the offending line or the
// line above. The reason is mandatory — a bare directive suppresses
// nothing — so every suppression is self-justifying, which `make
// check` effectively enforces repo-wide. floatrange additionally
// honours `//lint:deterministic <reason>` on a range statement (see
// floatrange.go).
package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"geofootprint/internal/lint/analysis"
	"geofootprint/internal/lint/loader"
	"geofootprint/internal/par"
)

// Analyzers is the full geolint suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	FloatRange,
	AtomicWrite,
	ColWrite,
	HotAlloc,
	HotMath,
	SortedFootprint,
	FootprintRead,
	ErrDiscard,
	CtxCancel,
	EpochMut,
	BodyClose,
	LockBalance,
	TestOnly,
}

// Finding is one surfaced (non-suppressed) diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// StaleIgnore is the pseudo-analyzer name under which the driver
// reports suppression directives that no longer suppress anything, or
// that name an analyzer that does not exist. A stale //lint:ignore is
// a lie in the source — it claims a diagnostic is being waved through
// when there is none — and it rots into cover for a future real
// finding on the same line, so the driver treats it as a finding of
// its own.
const StaleIgnore = "staleignore"

// Run applies every analyzer to every package — packages in parallel,
// bounded by GOMAXPROCS, then each whole-program analyzer once over
// all of them — and returns the surviving findings sorted by position,
// so the output order is deterministic regardless of scheduling.
// Suppression directives are applied centrally, one index per package
// shared by the whole suite, and directives that suppressed nothing
// are reported under the staleignore pseudo-analyzer.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	results := make([][]Finding, len(pkgs))
	sups := make([]*suppressions, len(pkgs))
	errs := make([]error, len(pkgs))
	par.For(len(pkgs), 0, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			pkg := pkgs[i]
			sups[i] = newSuppressions(pkg.Fset, pkg.Files)
			for _, a := range analyzers {
				if a.RunProgram != nil {
					continue
				}
				if err := a.Run(newPass(pkg, a, sups[i], &results[i])); err != nil {
					errs[i] = fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.Path, err)
					break
				}
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		passes := make([]*analysis.Pass, len(pkgs))
		for i, pkg := range pkgs {
			passes[i] = newPass(pkg, a, sups[i], &results[i])
		}
		if err := a.RunProgram(passes); err != nil {
			return nil, fmt.Errorf("lint: %s: %v", a.Name, err)
		}
	}
	var all []Finding
	for i, fs := range results {
		all = append(all, fs...)
		all = append(all, staleFindings(sups[i], analyzers)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

// RunOne applies a single per-package analyzer to a single package,
// returning the findings that survive //lint:ignore suppression. Used
// by fixture tests, which exercise one analyzer at a time;
// stale-suppression detection deliberately does not run here (a
// fixture's directives for other analyzers would all read as stale).
func RunOne(pkg *loader.Package, a *analysis.Analyzer) ([]Finding, error) {
	var out []Finding
	if err := a.Run(newPass(pkg, a, newSuppressions(pkg.Fset, pkg.Files), &out)); err != nil {
		return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.Path, err)
	}
	return out, nil
}

// newPass builds the Pass through which analyzer a sees pkg: its
// Report applies sup's directives, drops exact duplicates and appends
// what survives to out.
func newPass(pkg *loader.Package, a *analysis.Analyzer, sup *suppressions, out *[]Finding) *analysis.Pass {
	seen := make(map[string]bool)
	return &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report: func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if sup.suppressed(a.Name, pos) {
				return
			}
			key := fmt.Sprintf("%s:%d:%d:%s", pos.Filename, pos.Line, pos.Column, d.Message)
			if seen[key] {
				return
			}
			seen[key] = true
			*out = append(*out, Finding{Pos: pos, Analyzer: a.Name, Message: d.Message})
		},
	}
}

// staleFindings reports unused directives after a suite run. A
// directive naming an analyzer in the run set that suppressed nothing
// is stale; a directive naming an analyzer that exists in neither the
// run set nor the full registry is a typo that silently suppresses
// nothing. A directive for a registered analyzer outside the run set
// is left alone — a partial run cannot tell whether it is live.
func staleFindings(sup *suppressions, ran []*analysis.Analyzer) []Finding {
	inRun := make(map[string]bool, len(ran))
	for _, a := range ran {
		inRun[a.Name] = true
	}
	registered := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		registered[a.Name] = true
	}
	var out []Finding
	for _, d := range sup.directives {
		if d.used {
			continue
		}
		switch {
		case inRun[d.name]:
			out = append(out, Finding{
				Pos:      d.pos,
				Analyzer: StaleIgnore,
				Message: fmt.Sprintf(
					"//lint:ignore %s suppresses nothing: no %s diagnostic on this or the next line",
					d.name, d.name),
			})
		case !registered[d.name]:
			out = append(out, Finding{
				Pos:      d.pos,
				Analyzer: StaleIgnore,
				Message: fmt.Sprintf(
					"//lint:ignore names unknown analyzer %q", d.name),
			})
		}
	}
	return out
}

// directive is one //lint:ignore occurrence, with a usage bit so the
// driver can tell live suppressions from stale ones after a full
// suite run.
type directive struct {
	pos  token.Position
	name string
	used bool
}

// suppressions indexes //lint:ignore directives by file and line.
type suppressions struct {
	fset *token.FileSet
	// directives holds every parsed directive in file order.
	directives []*directive
	// byLine maps filename → line → directives located there.
	byLine map[string]map[int][]*directive
}

func newSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{fset: fset, byLine: make(map[string]map[int][]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				d := &directive{pos: pos, name: name}
				s.directives = append(s.directives, d)
				m := s.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]*directive)
					s.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], d)
			}
		}
	}
	return s
}

// parseIgnore recognises `//lint:ignore <analyzer> <reason>` and
// returns the analyzer name. A directive without a reason is invalid
// and ignored: suppressions must carry their justification.
func parseIgnore(comment string) (string, bool) {
	text, ok := strings.CutPrefix(comment, "//lint:ignore")
	if !ok {
		return "", false
	}
	fields := strings.Fields(text)
	if len(fields) < 2 { // analyzer name plus at least one reason word
		return "", false
	}
	return fields[0], true
}

// suppressed reports whether a directive for the analyzer sits on the
// diagnostic's line or the line directly above it, marking the
// directive used when it matches.
func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	m := s.byLine[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range m[line] {
			if d.name == analyzer {
				d.used = true
				return true
			}
		}
	}
	return false
}

// ---- shared helpers used by several analyzers ----

// pathHasSegment reports whether importPath contains seg as a whole
// path segment (e.g. "geofootprint/internal/store" has "store").
func pathHasSegment(importPath, seg string) bool {
	for _, s := range strings.Split(importPath, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// persistencePkg reports whether the package is part of the durability
// layer, where atomicwrite applies and errdiscard also checks defers.
func persistencePkg(importPath string) bool {
	return pathHasSegment(importPath, "store") ||
		pathHasSegment(importPath, "wal") ||
		pathHasSegment(importPath, "ingest")
}

// calleeFunc resolves the called function or method of a call
// expression, or nil for builtins, conversions and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// returnsError reports whether the function signature includes an
// error result.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// namedOrPointee unwraps pointers and returns the named type, if any.
func namedOrPointee(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
