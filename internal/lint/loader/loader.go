// Package loader type-checks Go packages for geolint without any
// dependency outside the standard library.
//
// It shells out to `go list -export -json -deps`, which both resolves
// the package graph and compiles export data for every dependency into
// the build cache. The requested (root) packages are then parsed and
// type-checked from source — geolint needs their ASTs — while every
// import is satisfied from the compiler's export data via
// go/importer's gc lookup mode. This is the same division of labour as
// golang.org/x/tools/go/packages in LoadSyntax mode, implemented on
// stdlib only.
//
// Roots are parsed and type-checked in parallel, one worker per
// GOMAXPROCS slot. Each worker owns a private token.FileSet and a
// private importer: importer.ForCompiler instances memoize loaded
// packages in an unguarded map and intern positions into their
// FileSet, so sharing either across goroutines would race. The exports
// map is read-only after listing and safe to share. A consequence
// callers see: positions must be resolved through each Package's own
// Fset field, never through a FileSet captured from some other
// package.
//
// Errors do not short-circuit. A CI run that dies on the first broken
// package hides every other broken package behind it, so listing,
// parsing and type-checking each collect everything they hit
// (type-check errors capped per package) and the joined error reports
// them all, ordered by root import path.
package loader

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"geofootprint/internal/par"
)

// Package is one type-checked root package.
type Package struct {
	Path  string // import path
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test Go files, parsed with comments
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Incomplete bool
	Error      *listErr
	DepsErrors []*listErr
}

type listErr struct {
	Err string
}

// maxTypeErrors caps how many type-check errors one package
// contributes to the aggregate, so a package missing an import does
// not bury every other package's diagnostics under its cascade.
const maxTypeErrors = 10

// Load lists, parses, and type-checks the packages matched by patterns,
// resolved relative to dir (the module root or any directory inside
// it). Test files are deliberately excluded: geolint gates production
// code; tests create scratch files and drop errors legitimately.
//
// On failure the returned error aggregates every load error across all
// roots (use errors.Join semantics: the message is one line per
// failure), never just the first.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var roots []listPkg
	var listErrs []error
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		if p.Error != nil {
			listErrs = append(listErrs, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err))
			continue
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			roots = append(roots, p)
		}
	}

	// Parse and type-check roots in parallel. Per-worker state only:
	// see the package comment for why fset and importer cannot be
	// shared.
	type result struct {
		pkg *Package
		err error
	}
	results := make([]result, len(roots))
	par.For(len(roots), 0, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i].pkg, results[i].err = checkRoot(&roots[i], exports)
		}
	})

	errs := listErrs
	var pkgs []*Package
	for _, r := range results {
		if r.err != nil {
			errs = append(errs, r.err)
		} else if r.pkg != nil {
			pkgs = append(pkgs, r.pkg)
		}
	}
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return nil, errors.Join(errs...)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// checkRoot parses and type-checks one root package with its own
// FileSet and importer. A nil, nil return means the root has no Go
// files (e.g. a directory of build-tagged-out sources).
func checkRoot(r *listPkg, exports map[string]string) (*Package, error) {
	if len(r.GoFiles) == 0 {
		return nil, nil
	}
	fset := token.NewFileSet()
	var parseErrs []error
	files := make([]*ast.File, 0, len(r.GoFiles))
	for _, gf := range r.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(r.Dir, gf), nil, parser.ParseComments)
		if err != nil {
			parseErrs = append(parseErrs, fmt.Errorf("loader: %v", err))
			continue
		}
		files = append(files, f)
	}
	if len(parseErrs) > 0 {
		return nil, errors.Join(parseErrs...)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (stale build cache? rerun go build)", path)
		}
		return os.Open(f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error: func(err error) {
			if len(typeErrs) < maxTypeErrors {
				typeErrs = append(typeErrs, fmt.Errorf("loader: type-checking %s: %v", r.ImportPath, err))
			}
		},
	}
	tpkg, err := conf.Check(r.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, errors.Join(typeErrs...)
	}
	if err != nil {
		// Errors the handler did not see (e.g. importer failures are
		// sometimes returned directly).
		return nil, fmt.Errorf("loader: type-checking %s: %v", r.ImportPath, err)
	}
	return &Package{
		Path:  r.ImportPath,
		Name:  r.Name,
		Dir:   r.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
