// Package load turns `go list` output into parsed, type-checked packages
// for the lint analyzers. It is a minimal stand-in for
// golang.org/x/tools/go/packages built only on the standard library: the go
// command enumerates the module's packages, go/parser parses them into one
// shared FileSet, and go/types checks them in dependency order. Standard
// library imports are resolved by the source importer (GOROOT/src); an
// import that cannot be loaded degrades to an empty stub package so the
// analyzers still run — with incomplete type information — rather than
// failing the whole lint pass.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Path string // import path, e.g. dclue/internal/core
	Name string // package name
	Dir  string // directory holding the sources

	// Files holds the parsed sources: GoFiles plus, when present,
	// TestGoFiles (the in-package _test.go files). External test packages
	// (package foo_test) appear as their own Package with Path suffixed
	// "_test" per the go command's convention.
	Files []*ast.File

	Types *types.Package
	Info  *types.Info

	// LoadErrors records parse or type errors tolerated during loading.
	// Self-hosting on a tree that builds cleanly produces none; they are
	// surfaced in verbose mode only.
	LoadErrors []error
}

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
}

// Result is a loaded module slice.
type Result struct {
	Fset     *token.FileSet
	Packages []*Package // topologically sorted, dependencies first
	// Warnings notes imports that had to be stubbed out (types degrade).
	Warnings []string
}

// Modules loads the packages matching patterns (e.g. "./...") in the module
// rooted at dir. Test files are included: in-package tests augment their
// package, external test packages are loaded as "<path>_test".
func Modules(dir string, patterns ...string) (*Result, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	res := &Result{Fset: token.NewFileSet()}

	inModule := make(map[string]*listedPackage, len(listed))
	for _, lp := range listed {
		inModule[lp.ImportPath] = lp
	}

	// Dependency order over module-internal imports. Plain imports only:
	// in-package test imports cannot add module-level cycles to this pass
	// because the augmented package is type-checked against the plain
	// exports established in dependency order below.
	order, err := topoSort(listed, inModule)
	if err != nil {
		return nil, err
	}

	std := importer.ForCompiler(res.Fset, "source", nil)
	exports := make(map[string]*types.Package)
	imp := &moduleImporter{std: std, exports: exports, res: res}

	for _, lp := range order {
		// Pass 1 for this package: plain sources establish the exported
		// type surface its dependents import.
		plainFiles, perrs := parseAll(res.Fset, lp.Dir, lp.GoFiles)
		plainPkg, plainInfo, terrs := typeCheck(res.Fset, lp.ImportPath, plainFiles, imp)
		exports[lp.ImportPath] = plainPkg

		// Pass 2: the package as analyzed, with in-package tests folded in.
		// When the package has no in-package tests, pass 1 doubles as the
		// analysis view.
		files, pkgTypes, info := plainFiles, plainPkg, plainInfo
		if len(lp.TestGoFiles) > 0 {
			testFiles, terrs2 := parseAll(res.Fset, lp.Dir, lp.TestGoFiles)
			perrs = append(perrs, terrs2...)
			files = append(append([]*ast.File{}, plainFiles...), testFiles...)
			var terrsAug []error
			pkgTypes, info, terrsAug = typeCheck(res.Fset, lp.ImportPath, files, imp)
			terrs = append(terrs, terrsAug...)
		}
		p := &Package{
			Path:       lp.ImportPath,
			Name:       lp.Name,
			Dir:        lp.Dir,
			Files:      files,
			Types:      pkgTypes,
			Info:       info,
			LoadErrors: append(perrs, terrs...),
		}
		res.Packages = append(res.Packages, p)

		// External test package, if any.
		if len(lp.XTestGoFiles) > 0 {
			xFiles, xperrs := parseAll(res.Fset, lp.Dir, lp.XTestGoFiles)
			xPkg, xInfo, xterrs := typeCheck(res.Fset, lp.ImportPath+"_test", xFiles, imp)
			res.Packages = append(res.Packages, &Package{
				Path:       lp.ImportPath + "_test",
				Name:       lp.Name + "_test",
				Dir:        lp.Dir,
				Files:      xFiles,
				Types:      xPkg,
				Info:       xInfo,
				LoadErrors: append(xperrs, xterrs...),
			})
		}
	}
	return res, nil
}

// goList runs `go list -json patterns...` in dir.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// topoSort orders packages dependencies-first; the module is a DAG (the go
// command enforces acyclic imports), so a cycle here means corrupt input.
func topoSort(pkgs []*listedPackage, inModule map[string]*listedPackage) ([]*listedPackage, error) {
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	const (
		white = iota
		grey
		black
	)
	state := make(map[string]int, len(pkgs))
	var order []*listedPackage
	var visit func(lp *listedPackage) error
	visit = func(lp *listedPackage) error {
		switch state[lp.ImportPath] {
		case grey:
			return fmt.Errorf("import cycle through %s", lp.ImportPath)
		case black:
			return nil
		}
		state[lp.ImportPath] = grey
		for _, dep := range lp.Imports {
			if d, ok := inModule[dep]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[lp.ImportPath] = black
		order = append(order, lp)
		return nil
	}
	for _, lp := range pkgs {
		if err := visit(lp); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func parseAll(fset *token.FileSet, dir string, names []string) ([]*ast.File, []error) {
	var files []*ast.File
	var errs []error
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			errs = append(errs, err)
		}
		if f != nil {
			files = append(files, f)
		}
	}
	return files, errs
}

// NewInfo allocates the types.Info maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, []error) {
	var errs []error
	conf := types.Config{
		Importer:         imp,
		Error:            func(err error) { errs = append(errs, err) },
		FakeImportC:      true,
		IgnoreFuncBodies: false,
	}
	info := NewInfo()
	pkg, _ := conf.Check(path, fset, files, info) // errs collected above
	if pkg == nil {
		pkg = types.NewPackage(path, guessName(path))
	}
	return pkg, info, errs
}

func guessName(path string) string {
	return path[strings.LastIndex(path, "/")+1:]
}

// moduleImporter resolves module-internal imports from the exports table
// and everything else through the source importer, stubbing failures.
type moduleImporter struct {
	std     types.Importer
	exports map[string]*types.Package
	stubs   map[string]*types.Package
	res     *Result
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := m.exports[path]; ok && p != nil {
		return p, nil
	}
	if p, ok := m.stubs[path]; ok {
		return p, nil
	}
	p, err := m.std.Import(path)
	if err == nil && p != nil {
		return p, nil
	}
	// Unresolvable (cgo-only package, missing source): degrade to a stub so
	// analysis proceeds with incomplete types rather than not at all.
	if m.stubs == nil {
		m.stubs = make(map[string]*types.Package)
	}
	stub := types.NewPackage(path, guessName(path))
	stub.MarkComplete()
	m.stubs[path] = stub
	m.res.Warnings = append(m.res.Warnings, fmt.Sprintf("import %q could not be loaded (%v); types degrade", path, err))
	return stub, nil
}
