package main

import "go/ast"

// checkDoc flags a package that has no package doc comment, and every
// exported declaration of a non-test file that has no doc comment of its
// own. A doc comment on a grouped const, var or type block covers every
// member. A method whose name an interface visible to the loaded units
// declares is exempt: it implements that method, and the interface carries
// the doc.
func checkDoc(u *unit, d *diags) {
	files := u.sources()
	if len(files) == 0 {
		return
	}
	pkgDoc := false
	for _, f := range files {
		pkgDoc = pkgDoc || f.Doc != nil
	}
	if !pkgDoc {
		d.addf(files[0].Name.Pos(), "package %s has no package doc comment", u.pkg.Name())
	}
	u.forExports(func(name *ast.Ident, _ ast.Node, kind string, documented bool) {
		if !documented && (kind != "method" || !u.uses.ifaces[name.Name]) {
			d.addf(name.Pos(), "exported %s %s has no doc comment", kind, name.Name)
		}
	})
}
