package isps_test

import (
	"reflect"
	"testing"

	"extra/internal/isps"
)

// refEqual is the field-by-field structural equality the package shipped
// before Equal compared digests, with section names compared as well: the
// test oracle for Equal and Hash. It never reads a digest, so it is
// independent of the hasher.
func refEqual(a, b isps.Node) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	switch x := a.(type) {
	case *isps.Ident:
		y, ok := b.(*isps.Ident)
		return ok && x.Name == y.Name
	case *isps.Num:
		y, ok := b.(*isps.Num)
		return ok && x.Val == y.Val && x.IsChar == y.IsChar
	case *isps.Call:
		y, ok := b.(*isps.Call)
		return ok && x.Name == y.Name
	case *isps.Bin:
		y, ok := b.(*isps.Bin)
		return ok && x.Op == y.Op && refEqual(x.X, y.X) && refEqual(x.Y, y.Y)
	case *isps.Un:
		y, ok := b.(*isps.Un)
		return ok && x.Op == y.Op && refEqual(x.X, y.X)
	case *isps.Mem:
		y, ok := b.(*isps.Mem)
		return ok && refEqual(x.Addr, y.Addr)
	case *isps.Block:
		y, ok := b.(*isps.Block)
		if !ok || len(x.Stmts) != len(y.Stmts) {
			return false
		}
		for i := range x.Stmts {
			if !refEqual(x.Stmts[i], y.Stmts[i]) {
				return false
			}
		}
		return true
	case *isps.AssignStmt:
		y, ok := b.(*isps.AssignStmt)
		return ok && refEqual(x.LHS, y.LHS) && refEqual(x.RHS, y.RHS)
	case *isps.IfStmt:
		y, ok := b.(*isps.IfStmt)
		return ok && refEqual(x.Cond, y.Cond) && refEqual(x.Then, y.Then) && refEqual(x.Else, y.Else)
	case *isps.RepeatStmt:
		y, ok := b.(*isps.RepeatStmt)
		return ok && refEqual(x.Body, y.Body)
	case *isps.ExitWhenStmt:
		y, ok := b.(*isps.ExitWhenStmt)
		return ok && refEqual(x.Cond, y.Cond)
	case *isps.AssertStmt:
		y, ok := b.(*isps.AssertStmt)
		return ok && refEqual(x.Cond, y.Cond)
	case *isps.InputStmt:
		y, ok := b.(*isps.InputStmt)
		if !ok || len(x.Names) != len(y.Names) {
			return false
		}
		for i := range x.Names {
			if x.Names[i] != y.Names[i] {
				return false
			}
		}
		return true
	case *isps.OutputStmt:
		y, ok := b.(*isps.OutputStmt)
		if !ok || len(x.Exprs) != len(y.Exprs) {
			return false
		}
		for i := range x.Exprs {
			if !refEqual(x.Exprs[i], y.Exprs[i]) {
				return false
			}
		}
		return true
	case *isps.RegDecl:
		y, ok := b.(*isps.RegDecl)
		return ok && x.Name == y.Name && x.Width == y.Width && x.Comment == y.Comment
	case *isps.FuncDecl:
		y, ok := b.(*isps.FuncDecl)
		return ok && x.Name == y.Name && x.Width == y.Width && x.Comment == y.Comment &&
			refEqual(x.Body, y.Body)
	case *isps.RoutineDecl:
		y, ok := b.(*isps.RoutineDecl)
		return ok && x.Name == y.Name && refEqual(x.Body, y.Body)
	case *isps.Section:
		// The shipped walk skipped section names, which Hash covers; the
		// seed testdata/fuzz/FuzzHashCons/80f761787e2fdbff (two
		// descriptions that differ only there) pins the correction.
		y, ok := b.(*isps.Section)
		if !ok || x.Name != y.Name || len(x.Decls) != len(y.Decls) {
			return false
		}
		for i := range x.Decls {
			if !refEqual(x.Decls[i], y.Decls[i]) {
				return false
			}
		}
		return true
	case *isps.Description:
		y, ok := b.(*isps.Description)
		if !ok || x.Name != y.Name || len(x.Sections) != len(y.Sections) {
			return false
		}
		for i := range x.Sections {
			if !refEqual(x.Sections[i], y.Sections[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// TestEqualMatchesReference: Equal agrees with the structural reference on
// pairs of subtrees of every corpus description and intermediate catalog
// state. The right-hand side of each pair comes from the state's re-parse,
// so every subtree meets its own re-parse (equal, never the same pointer,
// and not interned), the next subtree in pre-order (mostly another kind)
// and every other subtree of its kind in its state (mostly unequal, equal
// where the state repeats a subtree).
func TestEqualMatchesReference(t *testing.T) {
	pairs, equal := 0, 0
	for _, d := range catalogStates(t) {
		var left, right []isps.Node
		isps.Visit(d, func(n isps.Node) bool { left = append(left, n); return true })
		isps.Visit(isps.MustParse(isps.Format(d)), func(n isps.Node) bool { right = append(right, n); return true })
		if len(left) != len(right) {
			t.Fatalf("%s: %d nodes, its re-parse %d", d.Name, len(left), len(right))
		}
		for i, a := range left {
			for j, b := range right {
				if j != i+1 && reflect.TypeOf(a) != reflect.TypeOf(b) {
					continue
				}
				want := refEqual(a, b)
				if got := isps.Equal(a, b); got != want {
					t.Fatalf("%s: Equal(%T #%d, %T #%d) = %v, reference %v", d.Name, a, i, b, j, got, want)
				}
				if i == j && !want {
					t.Fatalf("%s: %T #%d differs from its re-parse", d.Name, a, i)
				}
				pairs++
				if want {
					equal++
				}
			}
		}
	}
	t.Logf("%d pairs, %d equal", pairs, equal)
}
