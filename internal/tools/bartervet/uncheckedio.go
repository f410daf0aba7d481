package main

import (
	"go/ast"
	"go/types"
)

// ioMethods are the durability-relevant method names the check watches.
var ioMethods = map[string]bool{
	"Write": true, "WriteString": true, "Sync": true, "Flush": true, "Close": true,
}

// checkUncheckedIO flags dropped errors from Write/WriteString/Sync/Flush/
// Close calls in non-test files. On the mediator WAL and codec paths a
// swallowed write error is durability silently lost: the shard keeps
// acknowledging deposits it is no longer logging.
//
// The rules, from strictest to loosest:
//
//   - a bare statement, `defer`, or `go` dropping the error is always
//     flagged, Close included;
//   - blank-assigning a write-side error (`_, _ = f.Write(b)`, `_ =
//     f.Sync()`) is flagged too — the data is gone even though the discard
//     is visible;
//   - `_ = x.Close()` is accepted: an explicit, visible decision that a
//     close error (teardown, error-path cleanup) has nowhere to go;
//   - receivers whose Write cannot fail (bytes.Buffer, strings.Builder)
//     are exempt.
func checkUncheckedIO(u *unit, d *diags) {
	for _, f := range u.sources() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if name, ok := droppedIOCall(u, s.X); ok {
					d.addf(s.Pos(), "%s error dropped: check it, or waive with %s unchecked-io <reason>", name, waiverPrefix)
				}
			case *ast.DeferStmt:
				if name, ok := droppedIOCall(u, s.Call); ok {
					d.addf(s.Pos(), "deferred %s drops its error: wrap it to check, blank-assign inside a closure, or waive with %s unchecked-io <reason>", name, waiverPrefix)
				}
			case *ast.GoStmt:
				if name, ok := droppedIOCall(u, s.Call); ok {
					d.addf(s.Pos(), "go %s drops its error", name)
				}
			case *ast.AssignStmt:
				if len(s.Rhs) != 1 {
					return true
				}
				name, ok := droppedIOCall(u, s.Rhs[0])
				if !ok || name == "Close" {
					return true // `_ = x.Close()` is an explicit, visible decision
				}
				// The error is the call's last result; flag only when that
				// position lands on the blank identifier.
				if len(s.Lhs) > 0 && isBlank(s.Lhs[len(s.Lhs)-1]) {
					d.addf(s.Pos(), "%s error blank-discarded: a lost write is lost durability — record it (degraded mode) or waive with %s unchecked-io <reason>", name, waiverPrefix)
				}
			}
			return true
		})
	}
}

// droppedIOCall reports whether expr is a watched io method call whose last
// result is an error, returning the method name.
func droppedIOCall(u *unit, expr ast.Expr) (string, bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !ioMethods[sel.Sel.Name] {
		return "", false
	}
	s, ok := u.info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", false
	}
	sig, ok := s.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return "", false
	}
	if neverFails(s.Recv()) {
		return "", false
	}
	return sel.Sel.Name, true
}

// neverFails exempts receivers documented to return nil errors always.
func neverFails(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "bytes.Buffer", "strings.Builder":
		return true
	}
	return false
}
