package transform

import (
	"extra/internal/dataflow"
	"extra/internal/isps"
)

func init() {
	register(&Transformation{
		Name:     "exit.split",
		Category: Loop,
		Effect:   Preserving,
		Doc: "Split a disjunctive exit: `exit_when (A or B)` becomes " +
			"`exit_when A; exit_when B` when both disjuncts are side-effect " +
			"free (evaluation of B after A's test is then unobservable).",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			ex, ok := blk.Stmts[idx].(*isps.ExitWhenStmt)
			if !ok {
				return nil, errPrecond("exit.split", "path %s is not an exit_when", at)
			}
			b, ok := ex.Cond.(*isps.Bin)
			if !ok || b.Op != isps.OpOr {
				return nil, errPrecond("exit.split", "condition is not a disjunction")
			}
			if !pureExpr(b.X) || !pureExpr(b.Y) {
				return nil, errPrecond("exit.split", "disjuncts have side effects")
			}
			nd, err := d.SpliceAtDesc(parentPath, idx, 1,
				&isps.ExitWhenStmt{Cond: b.X},
				&isps.ExitWhenStmt{Cond: b.Y})
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "split disjunctive exit"}, nil
		},
	})

	register(&Transformation{
		Name:     "exit.merge",
		Category: Loop,
		Effect:   Preserving,
		Doc: "Merge two adjacent exits: `exit_when A; exit_when B` becomes " +
			"`exit_when (A or B)` when both conditions are side-effect free.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			if idx+1 >= len(blk.Stmts) {
				return nil, errPrecond("exit.merge", "no following statement")
			}
			a, ok1 := blk.Stmts[idx].(*isps.ExitWhenStmt)
			b, ok2 := blk.Stmts[idx+1].(*isps.ExitWhenStmt)
			if !ok1 || !ok2 {
				return nil, errPrecond("exit.merge", "statements are not two adjacent exits")
			}
			if !pureExpr(a.Cond) || !pureExpr(b.Cond) {
				return nil, errPrecond("exit.merge", "exit conditions have side effects")
			}
			merged := &isps.ExitWhenStmt{Cond: &isps.Bin{Op: isps.OpOr, X: a.Cond, Y: b.Cond}}
			nd, err := d.SpliceAtDesc(parentPath, idx, 2, merged)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "merged adjacent exits"}, nil
		},
	})

	exprRewrite("rewrite.assoc.sub", "(a + b) - c => a + (b - c); pure operands (exact in modular arithmetic).",
		binary(is(isps.OpSub), binary(is(isps.OpAdd), anyNode, anyNode), anyNode),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			if !pureExpr(e) {
				return nil, errPrecond("rewrite.assoc.sub", "%s is not a pure (a + b) - c", exprText{e})
			}
			b := e.(*isps.Bin)
			add := b.X.(*isps.Bin)
			return &isps.Bin{Op: isps.OpAdd, X: add.X,
				Y: &isps.Bin{Op: isps.OpSub, X: add.Y, Y: b.Y}}, nil
		})

	exprRewrite("simplify.and.self", "b and b => b for pure boolean-valued b.",
		twice(isps.OpAnd),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			x := e.(*isps.Bin).X
			if !pureExpr(x) || !isBooleanValued(x, d) {
				return nil, errPrecond("simplify.and.self", "%s is not a pure boolean self-conjunction", exprText{e})
			}
			return x, nil
		})

	exprRewrite("simplify.or.self", "b or b => b for pure boolean-valued b.",
		twice(isps.OpOr),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			x := e.(*isps.Bin).X
			if !pureExpr(x) || !isBooleanValued(x, d) {
				return nil, errPrecond("simplify.or.self", "%s is not a pure boolean self-disjunction", exprText{e})
			}
			return x, nil
		})

	exprRewrite("rewrite.zero.lt", "0 < a => a <> 0 (unsigned), and back.",
		either(binary(is(isps.OpLt), isZero, anyNode), binary(is(isps.OpNe), anyNode, isZero)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			if b.Op == isps.OpLt {
				return &isps.Bin{Op: isps.OpNe, X: b.Y, Y: &isps.Num{Val: 0}}, nil
			}
			return &isps.Bin{Op: isps.OpLt, X: &isps.Num{Val: 0}, Y: b.X}, nil
		})

	register(&Transformation{
		Name:     "if.pull.common",
		Category: Motion,
		Effect:   Preserving,
		Doc: "Pull an identical leading statement out of both branches: " +
			"`if e then S; A else S; B` becomes `S; if e then A else B` when " +
			"S is independent of the condition and not an exit.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			ifs, ok := blk.Stmts[idx].(*isps.IfStmt)
			if !ok {
				return nil, errPrecond("if.pull.common", "path %s is not a conditional", at)
			}
			if len(ifs.Then.Stmts) == 0 || len(ifs.Else.Stmts) == 0 {
				return nil, errPrecond("if.pull.common", "a branch is empty")
			}
			s := ifs.Then.Stmts[0]
			if !isps.Equal(s, ifs.Else.Stmts[0]) {
				return nil, errPrecond("if.pull.common", "leading statements differ")
			}
			if _, isExit := s.(*isps.ExitWhenStmt); isExit {
				return nil, errPrecond("if.pull.common", "cannot pull an exit_when")
			}
			funcs := dataflow.FuncMap(d)
			sEff := dataflow.NodeEffects(s, funcs)
			cEff := dataflow.NodeEffects(ifs.Cond, funcs)
			if k, ok := firstCommon(sEff.MayDef, cEff.MayUse, cEff.MayDef); ok {
				return nil, errPrecond("if.pull.common", "statement writes %s, which the condition touches", k)
			}
			if k, ok := firstCommon(cEff.MayDef, sEff.MayUse, sEff.MayDef); ok {
				return nil, errPrecond("if.pull.common", "condition writes %s, which the statement touches", k)
			}
			stripped := &isps.IfStmt{Cond: ifs.Cond,
				Then: &isps.Block{Stmts: append([]isps.Stmt(nil), ifs.Then.Stmts[1:]...)},
				Else: &isps.Block{Stmts: append([]isps.Stmt(nil), ifs.Else.Stmts[1:]...)}}
			nd, err := d.SpliceAtDesc(parentPath, idx, 1, s, stripped)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "pulled common leading statement out of the branches"}, nil
		},
	})
}
