package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// useIndex maps a package-level object or a concrete method, keyed by its
// declaration site, to the positions of every reference made to it from a
// non-test file of any loaded unit. The site key is the absolute file name
// plus byte offset, so a package's own type-check and the copy the source
// importer compiles for its importers resolve to the same entry. ifaces
// holds every method name an interface type visible to the loaded units
// declares: a call through an interface references the interface's method,
// never the concrete one, so a method of such a name may be used unseen.
// imported holds the absolute directory of every package a loaded unit
// imports, test files included, other than its own.
type useIndex struct {
	refs     map[string][]token.Pos
	ifaces   map[string]bool
	imported map[string]bool
}

func siteKey(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", absPath(p.Filename), p.Offset)
}

func absPath(path string) string {
	if abs, err := filepath.Abs(path); err == nil {
		return abs
	}
	return path
}

// indexUses collects the non-test references to exported package-level
// objects and methods across all units, and the method names of the
// interfaces visible to them (their own, the universe's error and those of
// the packages they import), and the packages they import; it must see every
// unit before deadcode reports.
func indexUses(units []*unit) *useIndex {
	idx := &useIndex{refs: map[string][]token.Pos{}, ifaces: map[string]bool{}, imported: map[string]bool{}}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				idx.ifaces[it.Method(i).Name()] = true
			}
		}
	}
	addScope := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, u := range units {
		addScope(u.pkg)
		self := absPath(u.dir)
		for _, imp := range u.pkg.Imports() {
			addScope(imp)
			// Every package is compiled from source, so any of its
			// package-level objects names the directory it lives in.
			if names := imp.Scope().Names(); len(names) > 0 {
				if dir := filepath.Dir(absPath(u.fset.Position(imp.Scope().Lookup(names[0]).Pos()).Filename)); dir != self {
					idx.imported[dir] = true
				}
			}
		}
		for _, tv := range u.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for id, obj := range u.info.Uses {
			method := false
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
				method = f.Type().(*types.Signature).Recv() != nil
			}
			if obj.Pkg() == nil || !obj.Exported() || !method && obj.Parent() != obj.Pkg().Scope() || u.isTestFile(id.Pos()) {
				continue
			}
			k := siteKey(u.fset, obj.Pos())
			idx.refs[k] = append(idx.refs[k], id.Pos())
		}
	}
	return idx
}

// deadcodeScope reports what deadcode binds in the package in dir. Every
// package under internal/ except the tools themselves needs an importer,
// and all of them but the shared test helpers need a user for each export.
func deadcodeScope(dir string) (imports, exports bool) {
	p := "/" + filepath.ToSlash(filepath.Clean(dir)) + "/"
	imports = strings.Contains(p, "/internal/") && !strings.Contains(p, "/internal/tools/")
	return imports, imports && !strings.Contains(p, "/internal/testutil/")
}

// checkDeadcode flags a package that no other loaded unit imports, and every
// exported package-level func, type, var or const of a non-test file, and
// every exported method whose name no visible interface declares, that no
// non-test file in the loaded tree references. A reference inside the
// declaration itself (recursion, a self-referential type) does not count.
// The check only means something when every user is loaded.
func checkDeadcode(u *unit, d *diags) {
	imports, exports := deadcodeScope(u.dir)
	if src := u.sources(); imports && len(src) > 0 && !u.uses.imported[absPath(u.dir)] {
		d.addf(src[0].Name.Pos(), "package %s is imported by no other loaded package: delete it, or waive with //barter:allow deadcode <why it stays>", u.pkg.Name())
	}
	if !exports {
		return
	}
	u.forExports(func(name *ast.Ident, decl ast.Node, kind string, _ bool) {
		if kind == "method" && u.uses.ifaces[name.Name] {
			return
		}
		for _, at := range u.uses.refs[siteKey(u.fset, name.Pos())] {
			if at < decl.Pos() || at >= decl.End() {
				return
			}
		}
		d.addf(name.Pos(), "exported %s %s is used by no loaded non-test file: delete it, or waive with //barter:allow deadcode <why it stays>", kind, name.Name)
	})
}
