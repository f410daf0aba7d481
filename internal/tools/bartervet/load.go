package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// unit is one type-checked set of files: a package together with its
// in-package test files, or a package's external _test package. Analyzers
// see every file and filter _test.go themselves where the contract only
// binds non-test code.
type unit struct {
	dir   string
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
	uses  *useIndex // shared by every unit of one run; read by deadcode
}

// typeString renders a type with local names bare and imported names
// package-qualified, matching how the source spells them.
func (u *unit) typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string {
		if p == u.pkg {
			return ""
		}
		return p.Name()
	})
}

// loader parses and type-checks package directories. One shared FileSet and
// one shared source importer serve every load, so each dependency package is
// compiled from source at most once per run.
type loader struct {
	fset *token.FileSet
	imp  types.Importer
}

func newLoader() *loader {
	// The source importer compiles dependencies with go/build's default
	// context. Disabling cgo keeps that pure-Go (net and friends fall back
	// to their Go implementations), so the tool runs hermetically — no C
	// toolchain, no network.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// load parses dir and returns its check units: the package including its
// in-package test files, plus the external _test package when one exists.
func (l *loader) load(dir string) ([]*unit, error) {
	// Only the files a default build compiles: a race-tagged twin of a
	// !race file would otherwise be a redeclaration.
	pkgs, err := parser.ParseDir(l.fset, dir, func(fi fs.FileInfo) bool {
		ok, err := build.Default.MatchFile(dir, fi.Name())
		return ok && err == nil
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	// Deterministic unit order: package names sorted, external test
	// packages naturally follow their package (foo < foo_test).
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	var units []*unit
	var self *types.Package
	for _, name := range names {
		fileNames := make([]string, 0, len(pkgs[name].Files))
		for fname := range pkgs[name].Files {
			fileNames = append(fileNames, fname)
		}
		sort.Strings(fileNames)
		files := make([]*ast.File, 0, len(fileNames))
		for _, fname := range fileNames {
			files = append(files, pkgs[name].Files[fname])
		}
		// The external test package sees its own package as the go tool
		// builds it for tests — in-package _test.go files included — so what
		// an export_test.go adds is there.
		imp := l.imp
		if self != nil && name == self.Name()+"_test" {
			if abs, err := filepath.Abs(dir); err == nil {
				imp = selfImporter{Importer: l.imp, dir: abs, self: self}
			}
		}
		u, err := l.check(dir, name, files, imp)
		if err != nil {
			return nil, err
		}
		self = u.pkg
		units = append(units, u)
	}
	return units, nil
}

// selfImporter resolves the import path of the package in dir to an already
// checked package, and everything else through the shared importer.
type selfImporter struct {
	types.Importer
	dir  string
	self *types.Package
}

func (s selfImporter) Import(path string) (*types.Package, error) {
	if filepath.Base(path) == filepath.Base(s.dir) {
		if bp, err := build.Import(path, s.dir, build.FindOnly); err == nil && bp.Dir == s.dir {
			return s.self, nil
		}
	}
	return s.Importer.Import(path)
}

// check type-checks one file set as a package.
func (l *loader) check(dir, name string, files []*ast.File, imp types.Importer) (*unit, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	pkg, err := conf.Check(dir+":"+name, l.fset, files, info)
	if err != nil && typeErr == nil {
		typeErr = err
	}
	if typeErr != nil {
		return nil, fmt.Errorf("type-checking %s (package %s): %v", dir, name, typeErr)
	}
	return &unit{dir: dir, fset: l.fset, files: files, info: info, pkg: pkg}, nil
}

// goDirs returns every directory under root that contains Go files,
// skipping testdata trees.
func goDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// isTestFile reports whether the file holding pos is a _test.go file.
func (u *unit) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(u.fset.Position(pos).Filename, "_test.go")
}

// forExports calls fn for every exported package-level name a non-test file
// of the unit declares: its identifier, the node spanning its declaration,
// its kind ("func", "method", "type", "var" or "const"), and whether a doc
// comment covers it (its own, or its grouped block's).
func (u *unit) forExports(fn func(name *ast.Ident, decl ast.Node, kind string, documented bool)) {
	for _, f := range u.sources() {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				kind := "func"
				if decl.Recv != nil {
					kind = "method"
				}
				if decl.Name.IsExported() {
					fn(decl.Name, decl, kind, decl.Doc != nil)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							fn(s.Name, s, "type", decl.Doc != nil || s.Doc != nil)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								fn(n, s, strings.ToLower(decl.Tok.String()), decl.Doc != nil || s.Doc != nil)
							}
						}
					}
				}
			}
		}
	}
}

// sources returns the unit's non-test files in file name order; none for an
// external test package.
func (u *unit) sources() []*ast.File {
	var files []*ast.File
	for _, f := range u.files {
		if !u.isTestFile(f.Pos()) {
			files = append(files, f)
		}
	}
	return files
}
