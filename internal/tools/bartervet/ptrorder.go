package main

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// checkPtrOrder flags code that observes pointer numeric values in non-test
// files: converting a pointer to uintptr, taking reflect pointer identity,
// or formatting with %p. Allocation addresses change run to run (and GC can
// move them), so any ordering, hash, or output derived from one
// re-randomizes results.
func checkPtrOrder(u *unit, d *diags) {
	for _, f := range u.sources() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if uintptrOfPointer(u, call) {
				d.addf(call.Pos(), "uintptr conversion of a pointer: addresses change run to run, so any order or value derived from one is nondeterministic")
				return true
			}
			if name := reflectPointerIdentity(u, call); name != "" {
				d.addf(call.Pos(), "reflect pointer identity: %s exposes the allocation address, which changes run to run", name)
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := formatStringWithPtrVerb(u, arg); ok {
					d.addf(arg.Pos(), "%%p in format string %s: formatted addresses change run to run and must not feed results", lit)
				}
			}
			return true
		})
	}
}

// uintptrOfPointer reports whether call converts a pointer (or
// unsafe.Pointer) to uintptr.
func uintptrOfPointer(u *unit, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := u.info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Kind() != types.Uintptr {
		return false
	}
	switch at := u.info.TypeOf(call.Args[0]).Underlying().(type) {
	case *types.Pointer:
		return true
	case *types.Basic:
		return at.Kind() == types.UnsafePointer
	}
	return false
}

// reflectPointerIdentity reports a call to reflect.Value.Pointer or
// reflect.Value.UnsafePointer, returning the method name it flags.
func reflectPointerIdentity(u *unit, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Pointer" && sel.Sel.Name != "UnsafePointer") {
		return ""
	}
	s, ok := u.info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	named, ok := s.Recv().(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "reflect" || obj.Name() != "Value" {
		return ""
	}
	return "reflect.Value." + sel.Sel.Name
}

// formatStringWithPtrVerb reports whether arg is a constant string holding
// a %p verb, returning the literal for the message.
func formatStringWithPtrVerb(u *unit, arg ast.Expr) (string, bool) {
	tv, ok := u.info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	s := constant.StringVal(tv.Value)
	for i := 0; i+1 < len(s); i++ {
		if s[i] != '%' {
			continue
		}
		// Skip flags and width between % and the verb; %%p is a literal
		// percent followed by the letter p, not a verb.
		j := i + 1
		for j < len(s) && (s[j] == '+' || s[j] == '-' || s[j] == '#' || s[j] == ' ' || s[j] == '0' || (s[j] >= '1' && s[j] <= '9') || s[j] == '.') {
			j++
		}
		if j < len(s) && s[j] == 'p' {
			return tv.Value.ExactString(), true
		}
		if j < len(s) && s[j] == '%' {
			i = j // %%: resume after the escape
		}
	}
	return "", false
}
