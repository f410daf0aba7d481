// Command doccheck enforces documentation coverage as part of `make lint`.
//
// Usage:
//
//	doccheck [-exported] dir [dir...]
//
// Each argument is walked recursively for Go packages (testdata and test
// files are skipped). Every package found must carry a package doc comment.
// With -exported, every exported top-level declaration — funcs, methods on
// exported receivers, and each exported type, const, and var — must carry a
// doc comment too (a doc comment on a grouped const/var/type block covers
// the whole block). Violations are listed one per line and the exit status
// is nonzero, so godoc coverage regressions fail the lint target instead of
// rotting quietly.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit: it lists violations on stdout and
// returns the exit status (0 clean, 1 violations, 2 usage or I/O error).
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("doccheck", flag.ContinueOnError)
	flags.SetOutput(stderr)
	exported := flags.Bool("exported", false, "also require doc comments on every exported symbol")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if flags.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: doccheck [-exported] dir [dir...]")
		return 2
	}
	var problems []string
	for _, root := range flags.Args() {
		dirs, err := goDirs(root)
		if err != nil {
			fmt.Fprintln(stderr, "doccheck:", err)
			return 2
		}
		for _, dir := range dirs {
			ps, err := checkDir(dir, *exported)
			if err != nil {
				fmt.Fprintln(stderr, "doccheck:", err)
				return 2
			}
			problems = append(problems, ps...)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(stdout, p)
		}
		fmt.Fprintf(stderr, "doccheck: %d undocumented declarations\n", len(problems))
		return 1
	}
	return 0
}

// goDirs returns every directory under root that contains non-test Go
// files, skipping testdata trees.
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
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

// checkDir parses one package directory and reports its documentation
// violations.
func checkDir(dir string, exported bool) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, pkg := range pkgs {
		hasDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasDoc = true
			}
		}
		if !hasDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package doc comment", dir, pkg.Name))
		}
		if !exported {
			continue
		}
		for name, f := range pkg.Files {
			problems = append(problems, checkFile(fset, name, f)...)
		}
	}
	return problems, nil
}

// checkFile reports every exported top-level declaration in one file that
// lacks a doc comment.
func checkFile(fset *token.FileSet, name string, f *ast.File) []string {
	var problems []string
	undocumented := func(pos token.Pos, what, sym string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, sym))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if recv := receiverType(d); recv != "" {
				if !ast.IsExported(recv) {
					continue // method on an unexported type: internal detail
				}
				undocumented(d.Pos(), "method", recv+"."+d.Name.Name)
			} else {
				undocumented(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			// A doc comment on the grouped block documents every member.
			if d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil {
						undocumented(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							undocumented(n.Pos(), kindWord(d.Tok), n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// receiverType names a method's receiver type, stripping pointers and
// generic type parameters.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch tt := t.(type) {
	case *ast.Ident:
		return tt.Name
	case *ast.IndexExpr:
		if id, ok := tt.X.(*ast.Ident); ok {
			return id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := tt.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// kindWord names a value declaration's kind for the report.
func kindWord(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
