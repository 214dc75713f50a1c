package transform

import (
	"strings"

	"extra/internal/isps"
)

// exprRewrite builds a Preserving transformation that rewrites the single
// expression addressed by the path. gate is the rewrite's shape, which
// becomes the transformation's Gate: Apply refuses an expression outside it
// before calling fn. fn receives an expression of that shape and the
// description — which it must treat as read-only (build a fresh replacement
// or return a subexpression; never mutate) — and returns the replacement,
// or an error when a condition the gate leaves open fails: purity,
// boolean-valuedness, a nonzero divisor, or which operand is the constant
// or matches another.
//
// The rewrite is persistent: the outcome shares every subtree of d outside
// the spine from the root to the rewritten expression. A failed probe costs
// nothing but the resolve, and a successful one O(depth) spine nodes — this
// is the auto-search's hottest Apply path.
func exprRewrite(name, doc string, gate shape, fn func(e isps.Expr, d *isps.Description) (isps.Expr, error)) *Transformation {
	return register(&Transformation{
		Name:     name,
		Category: Local,
		Effect:   Preserving,
		Doc:      doc,
		Gate:     gate,
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			e, err := resolveExpr(d, at)
			if err != nil {
				return nil, err
			}
			if !gate(e) {
				return nil, errGate(name, exprText{e})
			}
			repl, err := fn(e, d)
			if err != nil {
				return nil, err
			}
			nd, err := d.ReplaceAtDesc(at, repl)
			if err != nil {
				return nil, err
			}
			var note strings.Builder
			isps.WriteExpr(&note, e)
			note.WriteString(" => ")
			isps.WriteExpr(&note, repl)
			return &Outcome{Desc: nd, Note: note.String()}, nil
		},
	})
}

// stmtFold builds a Preserving transformation that replaces the statement
// addressed by the path, once it passes gate (the transformation's Gate),
// by the statements fold returns for it.
func stmtFold(name, doc, note string, gate shape, fold func(s isps.Stmt) []isps.Stmt) *Transformation {
	return register(&Transformation{
		Name:     name,
		Category: Local,
		Effect:   Preserving,
		Doc:      doc,
		Gate:     gate,
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			s := blk.Stmts[idx]
			if !gate(s) {
				return nil, errGate(name, stmtText{s})
			}
			nd, err := d.SpliceAtDesc(parentPath, idx, 1, fold(s)...)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: note}, nil
		},
	})
}

// A shape is a structural condition on a node. The gates of the expression
// rewrites and the constant folds are built from the shapes below.
type shape = func(isps.Node) bool

func anyNode(isps.Node) bool { return true }

func isConst(n isps.Node) bool {
	_, ok := n.(*isps.Num)
	return ok
}

func nonzeroConst(n isps.Node) bool {
	c, ok := n.(*isps.Num)
	return ok && c.Val != 0
}

// constant matches the constant v.
func constant(v int64) shape {
	return func(n isps.Node) bool {
		c, ok := n.(*isps.Num)
		return ok && c.Val == v
	}
}

// isZero matches the constant 0.
var isZero = constant(0)

// is admits the operator o alone.
func is(o isps.Op) func(isps.Op) bool {
	return func(p isps.Op) bool { return p == o }
}

// binary matches a binary operation whose operator ops admits and whose
// operands match x and y.
func binary(ops func(isps.Op) bool, x, y shape) shape {
	return func(n isps.Node) bool {
		b, ok := n.(*isps.Bin)
		return ok && ops(b.Op) && x(b.X) && y(b.Y)
	}
}

// unary matches the unary operation op over an operand matching x.
func unary(op isps.Op, x shape) shape {
	return func(n isps.Node) bool {
		u, ok := n.(*isps.Un)
		return ok && u.Op == op && x(u.X)
	}
}

// either matches what a or b matches.
func either(a, b shape) shape {
	return func(n isps.Node) bool { return a(n) || b(n) }
}

// beside matches the binary operation op with an operand matching x on
// either side.
func beside(op isps.Op, x shape) shape {
	return either(binary(is(op), x, anyNode), binary(is(op), anyNode, x))
}

// twice matches the binary operation op over two equal operands.
func twice(op isps.Op) shape {
	return func(n isps.Node) bool {
		b, ok := n.(*isps.Bin)
		return ok && b.Op == op && isps.Equal(b.X, b.Y)
	}
}

// ifStmt and exitWhen match a conditional and an exit whose condition
// matches cond.
func ifStmt(cond shape) shape {
	return func(n isps.Node) bool {
		s, ok := n.(*isps.IfStmt)
		return ok && cond(s.Cond)
	}
}

func exitWhen(cond shape) shape {
	return func(n isps.Node) bool {
		s, ok := n.(*isps.ExitWhenStmt)
		return ok && cond(s.Cond)
	}
}

// otherThan returns the operand of b beside its constant v, the left one
// when both are v.
func otherThan(b *isps.Bin, v int64) isps.Expr {
	if c, ok := b.Y.(*isps.Num); ok && c.Val == v {
		return b.X
	}
	return b.Y
}

func numVal(e isps.Expr) (int64, bool) {
	n, ok := e.(*isps.Num)
	if !ok {
		return 0, false
	}
	return n.Val, true
}

// constOperands returns the operands of a binary operation over two
// constants.
func constOperands(e isps.Expr) (x, y int64) {
	b := e.(*isps.Bin)
	return b.X.(*isps.Num).Val, b.Y.(*isps.Num).Val
}

func boolNum(b bool) *isps.Num {
	if b {
		return &isps.Num{Val: 1}
	}
	return &isps.Num{Val: 0}
}

func init() {
	// --- constant folding -------------------------------------------------

	exprRewrite("fold.add", "Fold a constant addition: c1 + c2 => c3.",
		binary(is(isps.OpAdd), isConst, isConst),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			x, y := constOperands(e)
			return &isps.Num{Val: x + y}, nil
		})

	exprRewrite("fold.sub", "Fold a constant subtraction: c1 - c2 => c3.",
		binary(is(isps.OpSub), isConst, isConst),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			x, y := constOperands(e)
			return &isps.Num{Val: x - y}, nil
		})

	exprRewrite("fold.mul", "Fold a constant multiplication: c1 * c2 => c3.",
		binary(is(isps.OpMul), isConst, isConst),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			x, y := constOperands(e)
			return &isps.Num{Val: x * y}, nil
		})

	exprRewrite("fold.div", "Fold a constant division: c1 / c2 => c3 (c2 nonzero).",
		binary(is(isps.OpDiv), isConst, isConst),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			x, y := constOperands(e)
			if y == 0 {
				return nil, errPrecond("fold.div", "%s is not a constant division by a nonzero constant", exprText{e})
			}
			return &isps.Num{Val: int64(uint64(x) / uint64(y))}, nil
		})

	exprRewrite("fold.compare", "Fold a comparison of two constants to 0 or 1.",
		binary(isps.Op.IsComparison, isConst, isConst),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			x, y := constOperands(e)
			ux, uy := uint64(x), uint64(y)
			switch e.(*isps.Bin).Op {
			case isps.OpEq:
				return boolNum(ux == uy), nil
			case isps.OpNe:
				return boolNum(ux != uy), nil
			case isps.OpLt:
				return boolNum(ux < uy), nil
			case isps.OpGt:
				return boolNum(ux > uy), nil
			case isps.OpLe:
				return boolNum(ux <= uy), nil
			default:
				return boolNum(ux >= uy), nil
			}
		})

	exprRewrite("fold.not", "Fold a logical negation of a constant: not c => 0 or 1.",
		unary(isps.OpNot, isConst),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			return boolNum(e.(*isps.Un).X.(*isps.Num).Val == 0), nil
		})

	exprRewrite("fold.logic", "Fold a logical connective of two constants (and/or/xor).",
		binary(isps.Op.IsBoolean, isConst, isConst),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			x, y := constOperands(e)
			tx, ty := x != 0, y != 0
			switch e.(*isps.Bin).Op {
			case isps.OpAnd:
				return boolNum(tx && ty), nil
			case isps.OpOr:
				return boolNum(tx || ty), nil
			default:
				return boolNum(tx != ty), nil
			}
		})

	// --- algebraic identities --------------------------------------------

	exprRewrite("simplify.and.true", "b and 1 => b (and 1 and b => b) for boolean-valued b.",
		beside(isps.OpAnd, isConst),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			if nonzeroConst(b.Y) && isBooleanValued(b.X, d) {
				return b.X, nil
			}
			if nonzeroConst(b.X) && isBooleanValued(b.Y, d) {
				return b.Y, nil
			}
			return nil, errPrecond("simplify.and.true", "%s has no true constant beside a boolean-valued operand", exprText{e})
		})

	exprRewrite("simplify.and.false", "b and 0 => 0 (the other operand must be side-effect free).",
		beside(isps.OpAnd, isZero),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			if isZero(b.Y) && pureExpr(b.X) || isZero(b.X) && pureExpr(b.Y) {
				return &isps.Num{Val: 0}, nil
			}
			return nil, errPrecond("simplify.and.false", "%s has no false constant beside a pure operand", exprText{e})
		})

	exprRewrite("simplify.or.false", "b or 0 => b for boolean-valued b.",
		beside(isps.OpOr, isZero),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			if isZero(b.Y) && isBooleanValued(b.X, d) {
				return b.X, nil
			}
			if isZero(b.X) && isBooleanValued(b.Y, d) {
				return b.Y, nil
			}
			return nil, errPrecond("simplify.or.false", "%s has no false constant beside a boolean-valued operand", exprText{e})
		})

	exprRewrite("simplify.or.true", "b or 1 => 1 (the other operand must be side-effect free).",
		beside(isps.OpOr, isConst),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			if nonzeroConst(b.Y) && pureExpr(b.X) || nonzeroConst(b.X) && pureExpr(b.Y) {
				return &isps.Num{Val: 1}, nil
			}
			return nil, errPrecond("simplify.or.true", "%s has no true constant beside a pure operand", exprText{e})
		})

	exprRewrite("simplify.xor.false", "b xor 0 => b for boolean-valued b.",
		beside(isps.OpXor, isZero),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			if isZero(b.Y) && isBooleanValued(b.X, d) {
				return b.X, nil
			}
			if isZero(b.X) && isBooleanValued(b.Y, d) {
				return b.Y, nil
			}
			return nil, errPrecond("simplify.xor.false", "%s has no false constant beside a boolean-valued operand", exprText{e})
		})

	exprRewrite("simplify.not.not", "not not b => b for boolean-valued b.",
		unary(isps.OpNot, unary(isps.OpNot, anyNode)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			inner := e.(*isps.Un).X.(*isps.Un)
			if !isBooleanValued(inner.X, d) {
				return nil, errPrecond("simplify.not.not", "%s is not a double negation of a boolean-valued operand", exprText{e})
			}
			return inner.X, nil
		})

	exprRewrite("simplify.add.zero", "x + 0 => x (and 0 + x => x).",
		beside(isps.OpAdd, isZero),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			return otherThan(e.(*isps.Bin), 0), nil
		})

	exprRewrite("simplify.sub.zero", "x - 0 => x.",
		binary(is(isps.OpSub), anyNode, isZero),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			return e.(*isps.Bin).X, nil
		})

	exprRewrite("simplify.sub.self", "x - x => 0 for side-effect-free x.",
		twice(isps.OpSub),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			if !pureExpr(e.(*isps.Bin).X) {
				return nil, errPrecond("simplify.sub.self", "%s is not a pure self-subtraction", exprText{e})
			}
			return &isps.Num{Val: 0}, nil
		})

	exprRewrite("simplify.mul.one", "x * 1 => x (and 1 * x => x).",
		beside(isps.OpMul, constant(1)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			return otherThan(e.(*isps.Bin), 1), nil
		})

	exprRewrite("simplify.mul.zero", "x * 0 => 0 for side-effect-free x.",
		beside(isps.OpMul, isZero),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			if isZero(b.Y) && pureExpr(b.X) || isZero(b.X) && pureExpr(b.Y) {
				return &isps.Num{Val: 0}, nil
			}
			return nil, errPrecond("simplify.mul.zero", "%s has no zero operand beside a pure operand", exprText{e})
		})

	exprRewrite("simplify.div.one", "x / 1 => x.",
		binary(is(isps.OpDiv), anyNode, constant(1)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			return e.(*isps.Bin).X, nil
		})

	// --- comparison and negation rewriting ---------------------------------

	exprRewrite("rewrite.subeq", "(a - b) = 0 => a = b (exact in modular arithmetic).",
		binary(is(isps.OpEq), binary(is(isps.OpSub), anyNode, anyNode), constant(0)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			sub := e.(*isps.Bin).X.(*isps.Bin)
			return &isps.Bin{Op: isps.OpEq, X: sub.X, Y: sub.Y}, nil
		})

	exprRewrite("rewrite.commute.rel", "a R b => b R' a for any comparison (= and <> stay, < and > swap, <= and >= swap); operands must be side-effect free.",
		binary(isps.Op.IsComparison, anyNode, anyNode),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			if !pureExpr(b.X) || !pureExpr(b.Y) {
				return nil, errPrecond("rewrite.commute.rel", "operands of %s have side effects", exprText{e})
			}
			mirror := map[isps.Op]isps.Op{
				isps.OpEq: isps.OpEq, isps.OpNe: isps.OpNe,
				isps.OpLt: isps.OpGt, isps.OpGt: isps.OpLt,
				isps.OpLe: isps.OpGe, isps.OpGe: isps.OpLe,
			}
			return &isps.Bin{Op: mirror[b.Op], X: b.Y, Y: b.X}, nil
		})

	exprRewrite("rewrite.commute.add", "a + b => b + a; operands must be side-effect free.",
		binary(is(isps.OpAdd), anyNode, anyNode),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			if !pureExpr(b.X) || !pureExpr(b.Y) {
				return nil, errPrecond("rewrite.commute.add", "operands of %s have side effects", exprText{e})
			}
			return &isps.Bin{Op: isps.OpAdd, X: b.Y, Y: b.X}, nil
		})

	exprRewrite("rewrite.commute.logic", "a and b => b and a (likewise or, xor); operands must be side-effect free.",
		binary(isps.Op.IsBoolean, anyNode, anyNode),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			if !pureExpr(b.X) || !pureExpr(b.Y) {
				return nil, errPrecond("rewrite.commute.logic", "operands of %s have side effects", exprText{e})
			}
			return &isps.Bin{Op: b.Op, X: b.Y, Y: b.X}, nil
		})

	exprRewrite("rewrite.assoc.add", "(a + b) + c => a + (b + c); operands must be side-effect free.",
		binary(is(isps.OpAdd), binary(is(isps.OpAdd), anyNode, anyNode), anyNode),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			if !pureExpr(e) {
				return nil, errPrecond("rewrite.assoc.add", "%s is not a pure (a + b) + c", exprText{e})
			}
			b := e.(*isps.Bin)
			inner := b.X.(*isps.Bin)
			return &isps.Bin{Op: isps.OpAdd, X: inner.X,
				Y: &isps.Bin{Op: isps.OpAdd, X: inner.Y, Y: b.Y}}, nil
		})

	exprRewrite("rewrite.addsub.cancel", "(a + b) - a => b, and (b + a) - a => b; pure operands.",
		binary(is(isps.OpSub), binary(is(isps.OpAdd), anyNode, anyNode), anyNode),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			if !pureExpr(e) {
				return nil, errPrecond("rewrite.addsub.cancel", "%s is not a pure (a + b) - c", exprText{e})
			}
			b := e.(*isps.Bin)
			add := b.X.(*isps.Bin)
			if isps.Equal(add.X, b.Y) {
				return add.Y, nil
			}
			if isps.Equal(add.Y, b.Y) {
				return add.X, nil
			}
			return nil, errPrecond("rewrite.addsub.cancel", "subtrahend of %s matches neither addend", exprText{e})
		})

	exprRewrite("rewrite.subadd.cancel", "(a - b) + b => a; pure operands (exact in modular arithmetic).",
		binary(is(isps.OpAdd), binary(is(isps.OpSub), anyNode, anyNode), anyNode),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			sub := b.X.(*isps.Bin)
			if !pureExpr(e) || !isps.Equal(sub.Y, b.Y) {
				return nil, errPrecond("rewrite.subadd.cancel", "%s is not a pure (a - b) + b", exprText{e})
			}
			return sub.X, nil
		})

	exprRewrite("rewrite.demorgan.and", "not (a and b) => (not a) or (not b); pure operands.",
		unary(isps.OpNot, binary(is(isps.OpAnd), anyNode, anyNode)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Un).X.(*isps.Bin)
			if !pureExpr(b) {
				return nil, errPrecond("rewrite.demorgan.and", "%s is not a pure negated conjunction", exprText{e})
			}
			return &isps.Bin{Op: isps.OpOr,
				X: &isps.Un{Op: isps.OpNot, X: b.X},
				Y: &isps.Un{Op: isps.OpNot, X: b.Y}}, nil
		})

	exprRewrite("rewrite.demorgan.or", "not (a or b) => (not a) and (not b); pure operands.",
		unary(isps.OpNot, binary(is(isps.OpOr), anyNode, anyNode)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Un).X.(*isps.Bin)
			if !pureExpr(b) {
				return nil, errPrecond("rewrite.demorgan.or", "%s is not a pure negated disjunction", exprText{e})
			}
			return &isps.Bin{Op: isps.OpAnd,
				X: &isps.Un{Op: isps.OpNot, X: b.X},
				Y: &isps.Un{Op: isps.OpNot, X: b.Y}}, nil
		})

	exprRewrite("rewrite.not.rel", "not (a = b) => a <> b, and every complementary comparison pair.",
		unary(isps.OpNot, binary(isps.Op.IsComparison, anyNode, anyNode)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Un).X.(*isps.Bin)
			comp := map[isps.Op]isps.Op{
				isps.OpEq: isps.OpNe, isps.OpNe: isps.OpEq,
				isps.OpLt: isps.OpGe, isps.OpGe: isps.OpLt,
				isps.OpGt: isps.OpLe, isps.OpLe: isps.OpGt,
			}
			return &isps.Bin{Op: comp[b.Op], X: b.X, Y: b.Y}, nil
		})

	exprRewrite("rewrite.neg.neg", "-(-x) => x.",
		unary(isps.OpNeg, unary(isps.OpNeg, anyNode)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			return e.(*isps.Un).X.(*isps.Un).X, nil
		})

	exprRewrite("rewrite.add.neg", "a + (-b) => a - b.",
		binary(is(isps.OpAdd), anyNode, unary(isps.OpNeg, anyNode)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			return &isps.Bin{Op: isps.OpSub, X: b.X, Y: b.Y.(*isps.Un).X}, nil
		})

	exprRewrite("rewrite.eq.le.zero", "a = 0 <=> a <= 0 (unsigned values are never below zero); rewrites in either direction.",
		either(binary(is(isps.OpEq), anyNode, isZero), binary(is(isps.OpLe), anyNode, isZero)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			op := isps.OpLe
			if b.Op == isps.OpLe {
				op = isps.OpEq
			}
			return &isps.Bin{Op: op, X: b.X, Y: b.Y}, nil
		})

	exprRewrite("rewrite.ne.to.gt", "a <> 0 => a > 0 (unsigned), and a > 0 => a <> 0.",
		either(binary(is(isps.OpNe), anyNode, isZero), binary(is(isps.OpGt), anyNode, isZero)),
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b := e.(*isps.Bin)
			op := isps.OpGt
			if b.Op == isps.OpGt {
				op = isps.OpNe
			}
			return &isps.Bin{Op: op, X: b.X, Y: b.Y}, nil
		})

	// --- conditional statements --------------------------------------------

	register(&Transformation{
		Name:     "if.reverse",
		Category: Local,
		Effect:   Preserving,
		Doc: "Reverse a conditional (figure 1 of the paper): " +
			"if e then A else B => if not e then B else A.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			n, err := isps.Resolve(d, at)
			if err != nil {
				return nil, err
			}
			s, ok := n.(*isps.IfStmt)
			if !ok {
				return nil, errPrecond("if.reverse", "path %s is not a conditional", at)
			}
			rev := &isps.IfStmt{Cond: &isps.Un{Op: isps.OpNot, X: s.Cond},
				Then: s.Else, Else: s.Then}
			nd, err := d.ReplaceAtDesc(at, rev)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "reversed conditional"}, nil
		},
	})

	stmtFold("if.true", "Replace `if c then A else B` by A when c is a nonzero constant.",
		"folded constant conditional", ifStmt(nonzeroConst),
		func(s isps.Stmt) []isps.Stmt { return s.(*isps.IfStmt).Then.Stmts })

	stmtFold("if.false", "Replace `if c then A else B` by B when c is the constant 0.",
		"folded constant conditional", ifStmt(isZero),
		func(s isps.Stmt) []isps.Stmt { return s.(*isps.IfStmt).Else.Stmts })

	register(&Transformation{
		Name:     "if.same",
		Category: Local,
		Effect:   Preserving,
		Doc:      "Replace `if e then A else A` by A when e is side-effect free and both branches are identical.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			s, ok := blk.Stmts[idx].(*isps.IfStmt)
			if !ok {
				return nil, errPrecond("if.same", "path %s is not a conditional", at)
			}
			if !pureExpr(s.Cond) {
				return nil, errPrecond("if.same", "condition %s has side effects", exprText{s.Cond})
			}
			if !isps.Equal(s.Then, s.Else) {
				return nil, errPrecond("if.same", "branches differ")
			}
			nd, err := d.SpliceAtDesc(parentPath, idx, 1, s.Then.Stmts...)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "collapsed conditional with identical branches"}, nil
		},
	})

	register(&Transformation{
		Name:     "if.empty",
		Category: Local,
		Effect:   Preserving,
		Doc:      "Delete `if e then else end_if` when both branches are empty and e is side-effect free.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			s, ok := blk.Stmts[idx].(*isps.IfStmt)
			if !ok {
				return nil, errPrecond("if.empty", "path %s is not a conditional", at)
			}
			if len(s.Then.Stmts) != 0 || len(s.Else.Stmts) != 0 {
				return nil, errPrecond("if.empty", "branches are not empty")
			}
			if !pureExpr(s.Cond) {
				return nil, errPrecond("if.empty", "condition %s has side effects", exprText{s.Cond})
			}
			nd, err := d.SpliceAtDesc(parentPath, idx, 1)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "deleted empty conditional"}, nil
		},
	})

	stmtFold("exit.false", "Delete `exit_when (0)`.", "deleted never-taken exit",
		exitWhen(isZero), func(isps.Stmt) []isps.Stmt { return nil })
}
