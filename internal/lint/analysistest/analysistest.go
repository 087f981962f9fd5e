// Package analysistest runs a geolint analyzer over fixture packages
// under internal/lint/testdata and compares its diagnostics against
// `// want "regexp"` expectations embedded in the fixtures — the same
// convention as golang.org/x/tools/go/analysis/analysistest, so the
// fixtures are portable to the upstream framework.
//
// An expectation is a trailing comment on the offending line:
//
//	s += v // want `floating-point accumulation`
//
// Multiple expectations on one line each need a matching diagnostic.
// Both `...` and "..." quote forms are accepted; the text is a regular
// expression matched against the diagnostic message. Every diagnostic
// must be matched by an expectation and vice versa — fixtures are
// exact, covering positive, suppressed and negative cases.
//
// Fixture packages live inside testdata, so `go build ./...` and
// `go vet ./...` skip them, but they are real packages of this module:
// the loader lists them by explicit path and they must type-check.
package analysistest

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"geofootprint/internal/lint"
	"geofootprint/internal/lint/analysis"
	"geofootprint/internal/lint/loader"
)

// Run loads each fixture package (a path relative to the module root,
// e.g. "./internal/lint/testdata/src/floatrange/a"), applies the
// analyzer, and reports mismatches against the // want expectations.
//
//lint:ignore testonly the fixture harness: only the analyzers' tests import this package
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	pkgs, err := loader.Load(ModuleRoot(t), fixtures...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", fixtures, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages matched %v", fixtures)
	}
	var findings []lint.Finding
	for _, pkg := range pkgs {
		fs, err := lint.RunOne(pkg, a)
		if err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
		}
		findings = append(findings, fs...)
	}
	check(t, pkgs, findings)
}

// RunModule is Run for a whole-program analyzer, whose fixture is a
// module of its own (a facade, mains, a second module nested under it):
// it loads every package of the module at dir, relative to the module
// root, and applies the analyzer to all of them at once through
// lint.Run.
//
//lint:ignore testonly the fixture harness: only the analyzers' tests import this package
func RunModule(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkgs, err := loader.Load(filepath.Join(ModuleRoot(t), dir), "./...")
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	findings, err := lint.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%s on %s: %v", a.Name, dir, err)
	}
	check(t, pkgs, findings)
}

// ModuleRoot locates the module root directory via the go command.
func ModuleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		t.Fatalf("not in a module (GOMOD=%q)", gomod)
	}
	return filepath.Dir(gomod)
}

// expectation is one // want entry.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
	met  bool
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func check(t *testing.T, pkgs []*loader.Package, findings []lint.Finding) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
						lit := m[1]
						if lit == "" {
							lit = m[2]
						}
						rx, err := regexp.Compile(lit)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, lit, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
					}
				}
			}
		}
	}

	used := make([]bool, len(findings))
finding:
	for i, f := range findings {
		for _, w := range wants {
			if !w.met && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.rx.MatchString(f.Message) {
				w.met = true
				used[i] = true
				continue finding
			}
		}
	}
	for i, f := range findings {
		if !used[i] {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}
