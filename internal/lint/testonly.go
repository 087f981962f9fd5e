package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"geofootprint/internal/lint/analysis"
	"geofootprint/internal/lint/loader"
)

// TestOnly flags code that only tests reach: an exported function,
// method, type, var or const of an internal/ package that no non-test
// file references, apart from references inside its own body (a
// function's or method's declaration; a type's declaration and its
// methods; a var or const spec). The linker drops such code from every
// binary, yet it is maintained, reviewed and counted, and nothing else
// finds it.
//
// A reference can come from anywhere in the program, so the pass is
// whole-program and its program does not depend on the run's patterns:
// every package `./...` loads in the checked packages' module (the
// cmd/* and examples/* mains, the root facade) plus every module
// nested under it (the benchmark ledger), loaded here whatever the run
// covered. Two uses name no method, so they count on their own:
//
//   - an exported alias outside internal/ (the facade's `type Server =
//     server.Server`) hands callers its target's whole method set;
//   - a method that, with its type's other methods, implements an
//     interface declared anywhere in the program or its imports
//     (fmt.Stringer, io.Writer, a consumer's own) may be called
//     through it.
//
// Keeping a finding — an oracle tests compare against, a fault hook —
// takes `//lint:ignore testonly <reason>` on or above its name.
var TestOnly = &analysis.Analyzer{
	Name:       "testonly",
	Doc:        "flag exported names in internal/ packages that only tests, or their own bodies, reference",
	RunProgram: runTestOnly,
}

// testOnlyCandidate is one exported declaration the pass judges.
type testOnlyCandidate struct {
	pass *analysis.Pass
	name *ast.Ident
	key  string
	kind string
}

func runTestOnly(passes []*analysis.Pass) error {
	var cands []testOnlyCandidate
	for _, pass := range passes {
		if !judgedPkg(pass.Pkg.Path()) {
			continue
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				eachUnit(pass.TypesInfo, decl, func(_ ast.Node, names []*ast.Ident, _ []string, kind string) {
					for _, id := range names {
						if id.IsExported() {
							cands = append(cands, testOnlyCandidate{pass, id, objKey(pass.TypesInfo.Defs[id]), kind})
						}
					}
				})
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	// One run lists one module's packages, so the first candidate's
	// module is every candidate's.
	root, err := moduleRoot(filepath.Dir(cands[0].pass.Fset.Position(cands[0].name.Pos()).Filename))
	if err != nil {
		return err
	}
	program, err := loadProgram(passes, root)
	if err != nil {
		return err
	}

	used := make(map[string]bool)
	ifaces := newIfaceIndex()
	for _, p := range program {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				eachUnit(p.TypesInfo, decl, func(n ast.Node, _ []*ast.Ident, owns []string, _ string) {
					ast.Inspect(n, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.Ident:
							if obj := p.TypesInfo.Uses[n]; obj != nil {
								if k := objKey(obj); k != "" && !slices.Contains(owns, k) {
									used[k] = true
								}
							}
						case *ast.InterfaceType:
							ifaces.add(p.TypesInfo.Types[n].Type)
						}
						return true
					})
				})
			}
		}
		ifaces.addImports(p.Pkg)
		if !pathHasSegment(p.Pkg.Path(), "internal") {
			markAliasedMethods(p.Pkg, used)
		}
	}

	for _, c := range cands {
		if used[c.key] {
			continue
		}
		if c.kind == "method" && ifaces.implemented(c.pass.TypesInfo.Defs[c.name].(*types.Func)) {
			continue
		}
		c.pass.Reportf(c.name.Pos(),
			"%s %s is referenced only from tests or its own body: delete it, or keep it with //lint:ignore testonly <reason>",
			c.kind, strings.TrimPrefix(c.key, c.pass.Pkg.Path()+"."))
	}
	return nil
}

// judgedPkg reports whether the pass judges a package's exports: one
// in an internal/ tree, which nothing outside the module can import,
// and not an analyzer fixture under testdata/.
func judgedPkg(path string) bool {
	return pathHasSegment(path, "internal") && !pathHasSegment(path, "testdata")
}

// eachUnit calls fn for each unit of decl whose references to itself
// do not count as uses: a function or method, or one spec of a type,
// var or const declaration. names are the unit's declared identifiers
// and owns their keys; a method also owns its receiver's type, whose
// body its methods are part of.
func eachUnit(info *types.Info, decl ast.Decl, fn func(n ast.Node, names []*ast.Ident, owns []string, kind string)) {
	owns := func(names []*ast.Ident) []string {
		var keys []string
		for _, id := range names {
			if obj := info.Defs[id]; obj != nil {
				keys = append(keys, objKey(obj))
			}
		}
		return keys
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		keys, kind := owns([]*ast.Ident{d.Name}), "func"
		if obj, ok := info.Defs[d.Name].(*types.Func); ok && d.Recv != nil {
			kind = "method"
			if n := namedOrPointee(types.Unalias(obj.Type().(*types.Signature).Recv().Type())); n != nil {
				keys = append(keys, objKey(n.Obj()))
			}
		}
		fn(d, []*ast.Ident{d.Name}, keys, kind)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				fn(s, []*ast.Ident{s.Name}, owns([]*ast.Ident{s.Name}), "type")
			case *ast.ValueSpec:
				fn(s, s.Names, owns(s.Names), d.Tok.String())
			}
		}
	}
}

// objKey names a package-level object or a method the same way in
// every package that sees it (a package checked from source and the
// same package imported from export data share no types.Object), or
// returns "" for anything else: fields, locals, builtins, methods of
// unnamed interfaces.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			n := namedOrPointee(types.Unalias(recv.Type()))
			if n == nil {
				return ""
			}
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
		obj = fn
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// markAliasedMethods marks used every method reachable through an
// exported alias of pkg: a facade alias hands its callers the target's
// whole method set, promoted methods included.
func markAliasedMethods(pkg *types.Package, used map[string]bool) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() || !tn.Exported() {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(types.Unalias(tn.Type())))
		for i := 0; i < ms.Len(); i++ {
			used[objKey(ms.At(i).Obj())] = true
		}
	}
}

// loadProgram returns the run's packages plus every package `./...`
// loads in the module at root, and in each module nested under it,
// that the run did not already hold.
func loadProgram(passes []*analysis.Pass, root string) ([]*analysis.Pass, error) {
	program := slices.Clone(passes)
	have := make(map[string]bool, len(passes))
	for _, p := range passes {
		have[p.Pkg.Path()] = true
	}
	nested, err := nestedModules(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range append([]string{root}, nested...) {
		pkgs, err := loader.Load(dir, "./...")
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			if !have[pkg.Path] {
				have[pkg.Path] = true
				program = append(program, &analysis.Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info})
			}
		}
	}
	return program, nil
}

// moduleRoot returns the nearest directory at or above dir holding a
// go.mod.
func moduleRoot(dir string) (string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no go.mod at or above %s", dir)
		}
	}
}

// nestedModules lists the directories under root that hold a go.mod of
// their own, skipping what the go command's ./... skips: testdata,
// vendor, and names starting with "." or "_".
func nestedModules(root string) ([]string, error) {
	var mods []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		switch {
		case path == root:
		case d.IsDir() && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")):
			return filepath.SkipDir
		case name == "go.mod":
			mods = append(mods, filepath.Dir(path))
		}
		return nil
	})
	return mods, err
}

// ifaceIndex holds the method sets of every non-empty interface in the
// program and its imports, as method name → signature key, indexed by
// method name. Keys are strings because each package sees its own
// copy of a shared type.
type ifaceIndex struct {
	seen   map[string]bool
	byName map[string][]map[string]string
	pkgs   map[*types.Package]bool
}

func newIfaceIndex() *ifaceIndex {
	x := &ifaceIndex{seen: make(map[string]bool), byName: make(map[string][]map[string]string), pkgs: make(map[*types.Package]bool)}
	// Interfaces no scope lists: error lives in the universe, and
	// errors.Is and errors.As assert the others inside function bodies.
	x.add(types.Universe.Lookup("error").Type())
	for _, m := range [][2]string{{"Unwrap", "()(error,)"}, {"Unwrap", "()([]error,)"}, {"Is", "(error,)(bool,)"}, {"As", "(interface{},)(bool,)"}} {
		x.addSet(map[string]string{m[0]: m[1]})
	}
	return x
}

func (x *ifaceIndex) add(t types.Type) {
	if t == nil {
		return
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	set := make(map[string]string, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		set[iface.Method(i).Name()] = sigKey(iface.Method(i).Type().(*types.Signature))
	}
	x.addSet(set)
}

func (x *ifaceIndex) addSet(set map[string]string) {
	id := fmt.Sprint(set) // fmt prints maps in key order
	if x.seen[id] {
		return
	}
	x.seen[id] = true
	for name := range set {
		x.byName[name] = append(x.byName[name], set)
	}
}

// addImports adds the interfaces declared at package level in every
// package pkg imports, transitively. Packages are told apart by
// pointer, not path: an indirect import read from export data holds
// only the objects its importer needed, so an earlier partial copy of
// a path must not hide a later complete one.
func (x *ifaceIndex) addImports(pkg *types.Package) {
	for _, imp := range pkg.Imports() {
		if x.pkgs[imp] {
			continue
		}
		x.pkgs[imp] = true
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				x.add(tn.Type())
			}
		}
		x.addImports(imp)
	}
}

// implemented reports whether method fn, together with the rest of its
// receiver type's method set, implements an indexed interface that has
// fn among its methods.
func (x *ifaceIndex) implemented(fn *types.Func) bool {
	n := namedOrPointee(types.Unalias(fn.Type().(*types.Signature).Recv().Type()))
	if n == nil {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	have := make(map[string]string, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		have[ms.At(i).Obj().Name()] = sigKey(ms.At(i).Obj().Type().(*types.Signature))
	}
	for _, set := range x.byName[fn.Name()] {
		if subset(set, have) {
			return true
		}
	}
	return false
}

func subset(want, have map[string]string) bool {
	for name, sig := range want {
		if have[name] != sig {
			return false
		}
	}
	return true
}

// anyRE matches the predeclared alias any, which a signature spells
// as interface{} or any depending on how its package was read.
var anyRE = regexp.MustCompile(`\bany\b`)

// sigKey spells a signature's parameter and result types, without
// names or receiver, with package-path-qualified type names.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	qual := func(p *types.Package) string { return p.Path() }
	for _, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			b.WriteString(types.TypeString(t.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return anyRE.ReplaceAllString(b.String(), "interface{}")
}
