package transform

import (
	"extra/internal/dataflow"
	"extra/internal/isps"
)

func init() {
	register(&Transformation{
		Name:     "move.swap",
		Category: Motion,
		Effect:   Preserving,
		Doc: "Reverse the order of two adjacent statements when data flow " +
			"shows them independent: neither writes anything the other reads " +
			"or writes, and neither is a loop exit.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			if idx+1 >= len(blk.Stmts) {
				return nil, errPrecond("move.swap", "statement at %s has no successor", at)
			}
			a, b := blk.Stmts[idx], blk.Stmts[idx+1]
			if !dataflow.Independent(a, b, dataflow.FuncMap(d)) {
				return nil, errPrecond("move.swap", "statements %q and %q are not independent",
					isps.StmtString(a), isps.StmtString(b))
			}
			nd, err := d.SpliceAtDesc(parentPath, idx, 2, b, a)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "swapped independent statements"}, nil
		},
	})

	register(&Transformation{
		Name:     "move.across.exit",
		Category: Motion,
		Effect:   Preserving,
		Doc: "Move an assignment across an adjacent exit_when. Valid when the " +
			"assignment does not touch the exit condition's variables, has no " +
			"side effects beyond its register target, and that register is " +
			"dead once the loop exits (so the exit path cannot observe the " +
			"changed order). The path addresses the assignment; dir=down " +
			"moves it past the following exit, dir=up past the preceding one.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			dir := args["dir"]
			if dir == "" {
				dir = "down"
			}
			exitIdx := idx + 1
			if dir == "up" {
				exitIdx = idx - 1
			}
			if exitIdx < 0 || exitIdx >= len(blk.Stmts) {
				return nil, errPrecond("move.across.exit", "no adjacent statement in direction %s", dir)
			}
			asn, ok := blk.Stmts[idx].(*isps.AssignStmt)
			if !ok {
				return nil, errPrecond("move.across.exit", "path %s is not an assignment", at)
			}
			ex, ok := blk.Stmts[exitIdx].(*isps.ExitWhenStmt)
			if !ok {
				return nil, errPrecond("move.across.exit", "adjacent statement is not an exit_when")
			}
			lhs, ok := asn.LHS.(*isps.Ident)
			if !ok {
				return nil, errPrecond("move.across.exit", "assignment writes memory; memory is observable at loop exit")
			}
			if !pureExpr(asn.RHS) || !pureExpr(ex.Cond) {
				return nil, errPrecond("move.across.exit", "assignment or exit condition has side effects")
			}
			if dataflow.UsesName(ex.Cond, lhs.Name) {
				return nil, errPrecond("move.across.exit", "exit condition reads %s", lhs.Name)
			}
			// The assignment's reads must not be affected either (the exit
			// evaluates no writes, so only the target matters).
			loopAt, err := enclosingLoop(d, at)
			if err != nil {
				return nil, errPrecond("move.across.exit", "%v", err)
			}
			live, err := liveAtLoopExit(d, loopAt, lhs.Name)
			if err != nil {
				return nil, err
			}
			if live {
				return nil, errPrecond("move.across.exit", "%s is live at loop exit; moving it across the exit would be observable", lhs.Name)
			}
			lo := idx
			if exitIdx < idx {
				lo = exitIdx
			}
			nd, err := d.SpliceAtDesc(parentPath, lo, 2, blk.Stmts[lo+1], blk.Stmts[lo])
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "moved dead-at-exit assignment across exit_when"}, nil
		},
	})

	register(&Transformation{
		Name:     "move.hoist.expr",
		Category: Motion,
		Effect:   Preserving,
		Doc: "Introduce a temporary for a subexpression: the statement " +
			"containing the expression must be entirely side-effect free so " +
			"evaluation order cannot be observed. Args: temp (fresh name), " +
			"width (bits, 0 for integer).",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			e, err := resolveExpr(d, at)
			if err != nil {
				return nil, err
			}
			tempName, err := args.Str("temp")
			if err != nil {
				return nil, err
			}
			width, err := args.Int("width")
			if err != nil {
				return nil, err
			}
			if isps.FreshName(d, tempName) != tempName {
				return nil, errPrecond("move.hoist.expr", "temporary name %q is already in use", tempName)
			}
			// Find the containing statement: the longest prefix of the path
			// addressing a Stmt.
			stmtPath, err := containingStmt(d, at)
			if err != nil {
				return nil, err
			}
			stmt, err := isps.Resolve(d, stmtPath)
			if err != nil {
				return nil, err
			}
			switch s := stmt.(type) {
			case *isps.AssignStmt, *isps.ExitWhenStmt, *isps.AssertStmt, *isps.OutputStmt:
				if dataflow.HasCalls(s.(isps.Stmt)) {
					return nil, errPrecond("move.hoist.expr", "containing statement has calls; hoisting would reorder side effects")
				}
				// The assignment's left-hand side is a store target, not an
				// evaluated value: only subexpressions of its address (or
				// of the right-hand side) may be hoisted.
				if _, isAssign := s.(*isps.AssignStmt); isAssign &&
					len(at) == len(stmtPath)+1 && at[len(stmtPath)] == 0 {
					return nil, errPrecond("move.hoist.expr", "the expression is the assignment's store target, not a value")
				}
			case *isps.IfStmt:
				// The expression must be inside the condition, which is
				// evaluated first; the branches are not part of evaluation.
				if len(at) <= len(stmtPath) || at[len(stmtPath)] != 0 {
					return nil, errPrecond("move.hoist.expr", "expression is not in the conditional's condition")
				}
				if dataflow.HasCalls(s.Cond) {
					return nil, errPrecond("move.hoist.expr", "condition has calls; hoisting would reorder side effects")
				}
			default:
				return nil, errPrecond("move.hoist.expr", "unsupported containing statement %T", stmt)
			}
			if dataflow.HasCalls(e) {
				return nil, errPrecond("move.hoist.expr", "expression itself has calls")
			}
			if need := valueWidth(e, d); width != 0 && width < need {
				return nil, errPrecond("move.hoist.expr",
					"a %d-bit temporary would truncate the expression (its value needs %d bits)", width, need)
			}
			blockPath, idx := stmtPath.Parent()
			rewritten, err := isps.ReplaceAt(stmt, at[len(stmtPath):], &isps.Ident{Name: tempName})
			if err != nil {
				return nil, err
			}
			nd, err := d.SpliceAtDesc(blockPath, idx, 1,
				&isps.AssignStmt{LHS: &isps.Ident{Name: tempName}, RHS: e}, rewritten.(isps.Stmt))
			if err == nil {
				nd, err = withRegDecl(nd, tempName, width, "hoisted subexpression")
			}
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "hoisted " + isps.ExprString(e) + " into " + tempName}, nil
		},
	})

	register(&Transformation{
		Name:     "move.dup.into.if",
		Category: Motion,
		Effect:   Preserving,
		Doc: "Move a statement into both branches of the immediately " +
			"following conditional, when it is independent of the condition.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			if idx+1 >= len(blk.Stmts) {
				return nil, errPrecond("move.dup.into.if", "no following statement")
			}
			ifs, ok := blk.Stmts[idx+1].(*isps.IfStmt)
			if !ok {
				return nil, errPrecond("move.dup.into.if", "following statement is not a conditional")
			}
			s := blk.Stmts[idx]
			if _, isExit := s.(*isps.ExitWhenStmt); isExit {
				return nil, errPrecond("move.dup.into.if", "cannot move an exit_when")
			}
			eff := dataflow.NodeEffects(s, dataflow.FuncMap(d))
			condEff := dataflow.NodeEffects(ifs.Cond, dataflow.FuncMap(d))
			if k, ok := firstCommon(eff.MayDef, condEff.MayUse, condEff.MayDef); ok {
				return nil, errPrecond("move.dup.into.if", "statement writes %s, which the condition touches", k)
			}
			if k, ok := firstCommon(condEff.MayDef, eff.MayUse, eff.MayDef); ok {
				return nil, errPrecond("move.dup.into.if", "condition writes %s, which the statement touches", k)
			}
			dup := &isps.IfStmt{
				Cond: ifs.Cond,
				Then: &isps.Block{Stmts: append([]isps.Stmt{s}, ifs.Then.Stmts...)},
				Else: &isps.Block{Stmts: append([]isps.Stmt{s}, ifs.Else.Stmts...)},
			}
			nd, err := d.SpliceAtDesc(parentPath, idx, 2, dup)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "duplicated statement into both branches"}, nil
		},
	})
}

// valueWidth conservatively bounds the bits an expression's value can
// need: memory reads are bytes, comparisons and logical connectives are
// boolean, registers carry their declared width, and arithmetic widens up
// to the interpreter's 64-bit words (subtraction wraps, so it always needs
// the full word).
func valueWidth(e isps.Expr, d *isps.Description) int {
	switch x := e.(type) {
	case *isps.Mem:
		return 8
	case *isps.Num:
		if x.Val < 0 {
			return 64
		}
		w := 0
		for v := uint64(x.Val); v > 0; v >>= 1 {
			w++
		}
		if w == 0 {
			return 1
		}
		return w
	case *isps.Ident:
		if r := d.Reg(x.Name); r != nil && r.Width > 0 {
			return r.Width
		}
		return 64
	case *isps.Un:
		if x.Op == isps.OpNot {
			return 1
		}
		return 64 // negation wraps
	case *isps.Bin:
		if x.Op.IsComparison() || x.Op.IsBoolean() {
			return 1
		}
		a, b := valueWidth(x.X, d), valueWidth(x.Y, d)
		switch x.Op {
		case isps.OpAdd:
			w := a
			if b > w {
				w = b
			}
			if w >= 64 {
				return 64
			}
			return w + 1
		case isps.OpMul:
			if a+b > 64 {
				return 64
			}
			return a + b
		default: // sub and div: sub wraps; keep div conservative too
			return 64
		}
	}
	return 64
}

// containingStmt returns the path of the innermost statement containing the
// node at `at`.
func containingStmt(root isps.Node, at isps.Path) (isps.Path, error) {
	for l := len(at); l > 0; l-- {
		n, err := isps.Resolve(root, at[:l])
		if err != nil {
			return nil, err
		}
		if _, ok := n.(isps.Stmt); ok {
			return append(isps.Path(nil), at[:l]...), nil
		}
	}
	return nil, errPrecond("transform", "path %s is not inside a statement", at)
}

// enclosingLoop returns the path of the innermost repeat loop containing the
// node at `at`.
func enclosingLoop(root isps.Node, at isps.Path) (isps.Path, error) {
	for l := len(at) - 1; l > 0; l-- {
		n, err := isps.Resolve(root, at[:l])
		if err != nil {
			return nil, err
		}
		if _, ok := n.(*isps.RepeatStmt); ok {
			return append(isps.Path(nil), at[:l]...), nil
		}
	}
	return nil, errPrecond("transform", "path %s is not inside a repeat loop", at)
}
