package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkMapRange flags every `range` over a map-typed value in non-test
// files. Map iteration order is randomized per run, and inside the
// deterministic packages candidate order feeds RNG draws and output order —
// one innocent `for k := range m` in a hot path silently re-randomizes
// results the seed was supposed to pin.
//
// Two shapes are accepted without a waiver:
//
//   - `for range m` (and `for _ := range m`): only the count is observed,
//     never the order.
//   - the collect-and-sort idiom: the loop body does nothing but append the
//     keys (optionally behind an if-filter) to slice variables, and one of
//     the next few statements sorts such a slice — the randomized order
//     never escapes.
//
// Anything else needs `//barter:allow maprange <reason>` stating why order
// cannot matter at that site (e.g. the body only mutates an
// order-insensitive set).
func checkMapRange(u *unit, d *diags) {
	for _, f := range u.sources() {
		ast.Inspect(f, func(n ast.Node) bool {
			list := stmtList(n)
			for i, stmt := range list {
				rs, ok := unlabel(stmt).(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := u.info.TypeOf(rs.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				if countOnly(rs) || collectedAndSorted(u, rs, list[i+1:]) {
					continue
				}
				d.addf(rs.Pos(), "range over map %s: iteration order is nondeterministic — collect and sort the keys, or waive with %s maprange <why order cannot matter>", u.typeString(t), waiverPrefix)
			}
			return true
		})
	}
}

// stmtList returns the statement list a node carries, if any. Every
// statement lives in exactly one of these, so walking them visits each
// range statement alongside its following siblings.
func stmtList(n ast.Node) []ast.Stmt {
	switch s := n.(type) {
	case *ast.BlockStmt:
		return s.List
	case *ast.CaseClause:
		return s.Body
	case *ast.CommClause:
		return s.Body
	}
	return nil
}

// unlabel strips label wrappers so `loop: for k := range m` is seen.
func unlabel(s ast.Stmt) ast.Stmt {
	for {
		ls, ok := s.(*ast.LabeledStmt)
		if !ok {
			return s
		}
		s = ls.Stmt
	}
}

// countOnly reports whether the range observes neither keys nor values.
func countOnly(rs *ast.RangeStmt) bool {
	return (rs.Key == nil || isBlank(rs.Key)) && (rs.Value == nil || isBlank(rs.Value))
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// collectedAndSorted recognizes the canonical deterministic-iteration
// idiom: the loop body only appends to slice variables, and a sort call on
// one of them follows within the next few sibling statements.
func collectedAndSorted(u *unit, rs *ast.RangeStmt, rest []ast.Stmt) bool {
	collectors := map[types.Object]bool{}
	if !collectOnly(u, rs.Body.List, collectors) || len(collectors) == 0 {
		return false
	}
	const horizon = 5 // statements after the loop that may intervene (e.g. scratch-slice bookkeeping)
	for i, stmt := range rest {
		if i == horizon {
			break
		}
		if sortsCollector(u, stmt, collectors) {
			return true
		}
	}
	return false
}

// collectOnly reports whether every statement is an append into a slice
// variable (recorded in collectors), an if-filter around such appends, or a
// continue.
func collectOnly(u *unit, stmts []ast.Stmt, collectors map[types.Object]bool) bool {
	for _, stmt := range stmts {
		switch s := unlabel(stmt).(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			lhs, ok := s.Lhs[0].(*ast.Ident)
			if !ok || lhs.Name == "_" {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || !isAppendTo(u, call, lhs) {
				return false
			}
			collectors[identObj(u, lhs)] = true
		case *ast.IfStmt:
			if s.Else != nil || !collectOnly(u, s.Body.List, collectors) {
				return false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// isAppendTo reports whether call is `append(lhs, ...)`.
func isAppendTo(u *unit, call *ast.CallExpr, lhs *ast.Ident) bool {
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if b, ok := u.info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && identObj(u, arg) == identObj(u, lhs)
}

// sortFuncs names the stdlib sorters the idiom accepts, per package.
var sortFuncs = map[string]map[string]bool{
	"sort":   {"Sort": true, "Stable": true, "Slice": true, "SliceStable": true, "Strings": true, "Ints": true, "Float64s": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortsCollector reports whether stmt is a sort./slices. call whose first
// argument is one of the collector slices.
func sortsCollector(u *unit, stmt ast.Stmt, collectors map[types.Object]bool) bool {
	es, ok := unlabel(stmt).(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := u.info.Uses[pkg].(*types.PkgName)
	if !ok {
		return false
	}
	names := sortFuncs[pn.Imported().Path()]
	if names == nil || !names[sel.Sel.Name] {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && collectors[identObj(u, arg)]
}

// identObj resolves an identifier to its object, whether it defines or
// uses it.
func identObj(u *unit, id *ast.Ident) types.Object {
	if o := u.info.Defs[id]; o != nil {
		return o
	}
	return u.info.Uses[id]
}
