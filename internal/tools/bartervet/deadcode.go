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
type useIndex struct {
	refs   map[string][]token.Pos
	ifaces map[string]bool
}

func siteKey(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	abs, err := filepath.Abs(p.Filename)
	if err != nil {
		abs = p.Filename
	}
	return fmt.Sprintf("%s:%d", abs, p.Offset)
}

// indexUses collects the non-test references to exported package-level
// objects and methods across all units, and the method names of the
// interfaces visible to them (their own, the universe's error and those of
// the packages they import); it must see every unit before deadcode reports.
func indexUses(units []*unit) *useIndex {
	idx := &useIndex{refs: map[string][]token.Pos{}, ifaces: map[string]bool{}}
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
		for _, imp := range u.pkg.Imports() {
			addScope(imp)
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

// deadcodeScope reports whether deadcode binds the package in dir: every
// package under internal/, except the tools themselves and the shared test
// helpers.
func deadcodeScope(dir string) bool {
	p := "/" + filepath.ToSlash(filepath.Clean(dir)) + "/"
	return strings.Contains(p, "/internal/") &&
		!strings.Contains(p, "/internal/tools/") && !strings.Contains(p, "/internal/testutil/")
}

// checkDeadcode flags every exported package-level func, type, var or const
// of a non-test file, and every exported method whose name no visible
// interface declares, that no non-test file in the loaded tree references.
// A reference inside the declaration itself (recursion, a self-referential
// type) does not count. The check only means something when the whole
// module is loaded.
func checkDeadcode(u *unit, d *diags) {
	if !deadcodeScope(u.dir) {
		return
	}
	dead := func(name *ast.Ident, decl ast.Node, kind string) {
		if !name.IsExported() {
			return
		}
		for _, at := range u.uses.refs[siteKey(u.fset, name.Pos())] {
			if at < decl.Pos() || at >= decl.End() {
				return
			}
		}
		d.addf(name.Pos(), "exported %s %s is used by no non-test file in the module: delete it, or waive with //barter:allow deadcode <why it stays>", kind, name.Name)
	}
	for _, f := range u.files {
		if u.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case decl.Recv == nil:
					dead(decl.Name, decl, "func")
				case !u.uses.ifaces[decl.Name.Name]:
					dead(decl.Name, decl, "method")
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						dead(s.Name, s, "type")
					case *ast.ValueSpec:
						for _, n := range s.Names {
							dead(n, s, strings.ToLower(decl.Tok.String()))
						}
					}
				}
			}
		}
	}
}
