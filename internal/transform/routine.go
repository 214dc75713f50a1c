package transform

import (
	"fmt"

	"extra/internal/dataflow"
	"extra/internal/isps"
)

// callSite locates the single Call under stmt and returns its path relative
// to the statement. More than one call is an error (inline them one at a
// time, leftmost first).
func callSite(stmt isps.Stmt) (isps.Path, *isps.Call, error) {
	var sites []isps.Path
	var calls []*isps.Call
	isps.Walk(stmt, func(n isps.Node, p isps.Path) bool {
		if c, ok := n.(*isps.Call); ok {
			sites = append(sites, append(isps.Path(nil), p...))
			calls = append(calls, c)
		}
		return true
	})
	if len(sites) == 0 {
		return nil, nil, fmt.Errorf("statement contains no call")
	}
	return sites[0], calls[0], nil
}

// readsBeforeCall collects the registers (and the memory pseudo-resource)
// that the statement's expression evaluation reads before it reaches the
// call, following the interpreter's order: for assignments the right-hand
// side evaluates before a memory target's address; operands evaluate left
// to right. Pre-order traversal visiting X before Y matches that order for
// leaf reads.
func readsBeforeCall(stmt isps.Stmt, callPath isps.Path) map[string]bool {
	reads := map[string]bool{}
	done := false
	var rec func(n isps.Node, p isps.Path)
	rec = func(n isps.Node, p isps.Path) {
		if done {
			return
		}
		if p.Equal(callPath) {
			done = true
			return
		}
		switch x := n.(type) {
		case *isps.Ident:
			reads[x.Name] = true
		case *isps.Mem:
			reads[dataflow.MemName] = true
		case *isps.AssignStmt:
			// RHS evaluates first, then a memory LHS's address.
			rec(x.RHS, p.Child(1))
			if lhs, ok := x.LHS.(*isps.Mem); ok {
				rec(lhs.Addr, p.Child(0).Child(0))
			}
			return
		}
		for i := 0; i < n.NumChildren(); i++ {
			rec(n.Child(i), p.Child(i))
		}
	}
	rec(stmt, isps.Path{})
	return reads
}

func init() {
	register(&Transformation{
		Name:     "routine.inline",
		Category: Routine,
		Effect:   Preserving,
		Doc: "Inline a function call: the callee's straight-line body is " +
			"placed before the containing statement, with the callee's value " +
			"captured in a fresh temporary that replaces the call. Valid when " +
			"the callee body is a sequence of assignments with exactly one to " +
			"its own name, and nothing the statement evaluates before the " +
			"call is written by the callee. The path addresses the containing " +
			"statement (its leftmost call is inlined). Args: temp (fresh).",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			const name = "routine.inline"
			tempName, err := args.Str("temp")
			if err != nil {
				return nil, err
			}
			if isps.FreshName(d, tempName) != tempName {
				return nil, errPrecond(name, "temporary name %q is already in use", tempName)
			}
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			stmt := blk.Stmts[idx]
			if _, isRepeat := stmt.(*isps.RepeatStmt); isRepeat {
				return nil, errPrecond(name, "cannot inline into a compound loop; address the inner statement")
			}
			if ifs, isIf := stmt.(*isps.IfStmt); isIf {
				// Only condition calls can be inlined at the if itself.
				if dataflow.HasCalls(ifs.Then) || dataflow.HasCalls(ifs.Else) {
					if !dataflow.HasCalls(ifs.Cond) {
						return nil, errPrecond(name, "calls are in the branches; address the inner statement")
					}
				}
			}
			relPath, call, err := callSite(stmt)
			if err != nil {
				return nil, errPrecond(name, "%v", err)
			}
			// For if statements, the call must be in the condition.
			if _, isIf := stmt.(*isps.IfStmt); isIf && (len(relPath) == 0 || relPath[0] != 0) {
				return nil, errPrecond(name, "call is not in the conditional's condition")
			}
			f := d.Func(call.Name)
			if f == nil {
				return nil, errPrecond(name, "no function %s()", call.Name)
			}
			retAssigns := 0
			for _, s := range f.Body.Stmts {
				a, ok := s.(*isps.AssignStmt)
				if !ok {
					return nil, errPrecond(name, "function %s body is not straight-line; simplify it first", f.Name)
				}
				if id, ok := a.LHS.(*isps.Ident); ok && id.Name == f.Name {
					retAssigns++
				}
				if dataflow.HasCalls(a) {
					return nil, errPrecond(name, "function %s body contains calls", f.Name)
				}
			}
			if retAssigns != 1 {
				return nil, errPrecond(name, "function %s assigns its value %d times, want 1", f.Name, retAssigns)
			}
			// Nothing evaluated before the call may be written by the callee.
			funcs := dataflow.FuncMap(d)
			pre := readsBeforeCall(stmt, relPath)
			calleeEff := dataflow.NodeEffects(f.Body, funcs)
			if r, ok := firstCommon(pre, calleeEff.MayDef); ok {
				return nil, errPrecond(name, "%s is read before the call and written by %s()", r, f.Name)
			}
			// Build the inlined body: callee statements with the return slot
			// renamed to the temporary, then the statement with the call
			// replaced by the temporary.
			temp := &isps.Ident{Name: tempName}
			inlined := make([]isps.Stmt, 0, len(f.Body.Stmts)+1)
			for _, s := range f.Body.Stmts {
				cp, _, _ := substitute(s, f.Name, temp)
				inlined = append(inlined, cp.(isps.Stmt))
			}
			replaced, err := isps.ReplaceAt(stmt, relPath, temp)
			if err != nil {
				return nil, err
			}
			nd, err := d.SpliceAtDesc(parentPath, idx, 1, append(inlined, replaced.(isps.Stmt))...)
			if err == nil {
				nd, err = withRegDecl(nd, tempName, f.Width, "inlined value of "+f.Name+"()")
			}
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Rewrites: len(inlined) + 1,
				Note: fmt.Sprintf("inlined %s() into %s", f.Name, tempName)}, nil
		},
	})

	register(&Transformation{
		Name:     "routine.remove",
		Category: Routine,
		Effect:   Preserving,
		Doc:      "Delete a function that is no longer called anywhere. Args: func.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			fname, err := args.Str("func")
			if err != nil {
				return nil, err
			}
			if d.Func(fname) == nil {
				return nil, errPrecond("routine.remove", "no function %s()", fname)
			}
			called := false
			isps.Walk(d, func(n isps.Node, _ isps.Path) bool {
				if call, ok := n.(*isps.Call); ok && call.Name == fname {
					called = true
				}
				return !called
			})
			if called {
				return nil, errPrecond("routine.remove", "%s() is still called", fname)
			}
			for si, s := range d.Sections {
				for di, dec := range s.Decls {
					if f, ok := dec.(*isps.FuncDecl); ok && f.Name == fname {
						nd, err := spliceDecls(d, si, di, 1)
						if err != nil {
							return nil, err
						}
						return &Outcome{Desc: nd, Note: "removed unused function " + fname}, nil
					}
				}
			}
			return nil, errPrecond("routine.remove", "declaration of %s not found", fname)
		},
	})
}
