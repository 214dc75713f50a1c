package transform

import (
	"strings"

	"extra/internal/isps"
)

// exprRewrite builds a Preserving transformation that rewrites the single
// expression addressed by the path. fn receives the expression and the
// description — which it must treat as read-only (build a fresh replacement
// or return a subexpression; never mutate) — and returns the replacement,
// or an error when the pattern does not apply.
//
// The rewrite is persistent: the outcome shares every subtree of d outside
// the spine from the root to the rewritten expression. A failed probe costs
// nothing but the resolve, and a successful one O(depth) spine nodes — this
// is the auto-search's hottest Apply path.
func exprRewrite(name, doc string, fn func(e isps.Expr, d *isps.Description) (isps.Expr, error)) *Transformation {
	return register(&Transformation{
		Name:     name,
		Category: Local,
		Effect:   Preserving,
		Doc:      doc,
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			e, err := resolveExpr(d, at)
			if err != nil {
				return nil, err
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

func wantBin(name string, e isps.Expr, op isps.Op) (*isps.Bin, error) {
	b, ok := e.(*isps.Bin)
	if !ok || b.Op != op {
		return nil, errPrecond(name, "expression %s is not a %s operation", exprText{e}, op)
	}
	return b, nil
}

func numVal(e isps.Expr) (int64, bool) {
	n, ok := e.(*isps.Num)
	if !ok {
		return 0, false
	}
	return n.Val, true
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
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("fold.add", e, isps.OpAdd)
			if err != nil {
				return nil, err
			}
			x, ok1 := numVal(b.X)
			y, ok2 := numVal(b.Y)
			if !ok1 || !ok2 {
				return nil, errPrecond("fold.add", "operands of %s are not both constants", exprText{e})
			}
			return &isps.Num{Val: x + y}, nil
		})

	exprRewrite("fold.sub", "Fold a constant subtraction: c1 - c2 => c3.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("fold.sub", e, isps.OpSub)
			if err != nil {
				return nil, err
			}
			x, ok1 := numVal(b.X)
			y, ok2 := numVal(b.Y)
			if !ok1 || !ok2 {
				return nil, errPrecond("fold.sub", "operands of %s are not both constants", exprText{e})
			}
			return &isps.Num{Val: x - y}, nil
		})

	exprRewrite("fold.mul", "Fold a constant multiplication: c1 * c2 => c3.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("fold.mul", e, isps.OpMul)
			if err != nil {
				return nil, err
			}
			x, ok1 := numVal(b.X)
			y, ok2 := numVal(b.Y)
			if !ok1 || !ok2 {
				return nil, errPrecond("fold.mul", "operands of %s are not both constants", exprText{e})
			}
			return &isps.Num{Val: x * y}, nil
		})

	exprRewrite("fold.div", "Fold a constant division: c1 / c2 => c3 (c2 nonzero).",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("fold.div", e, isps.OpDiv)
			if err != nil {
				return nil, err
			}
			x, ok1 := numVal(b.X)
			y, ok2 := numVal(b.Y)
			if !ok1 || !ok2 || y == 0 {
				return nil, errPrecond("fold.div", "%s is not a constant division by a nonzero constant", exprText{e})
			}
			return &isps.Num{Val: int64(uint64(x) / uint64(y))}, nil
		})

	exprRewrite("fold.compare", "Fold a comparison of two constants to 0 or 1.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, ok := e.(*isps.Bin)
			if !ok || !b.Op.IsComparison() {
				return nil, errPrecond("fold.compare", "%s is not a comparison", exprText{e})
			}
			x, ok1 := numVal(b.X)
			y, ok2 := numVal(b.Y)
			if !ok1 || !ok2 {
				return nil, errPrecond("fold.compare", "operands of %s are not both constants", exprText{e})
			}
			ux, uy := uint64(x), uint64(y)
			switch b.Op {
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
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			u, ok := e.(*isps.Un)
			if !ok || u.Op != isps.OpNot {
				return nil, errPrecond("fold.not", "%s is not a negation", exprText{e})
			}
			v, isNum := numVal(u.X)
			if !isNum {
				return nil, errPrecond("fold.not", "operand of %s is not a constant", exprText{e})
			}
			return boolNum(v == 0), nil
		})

	exprRewrite("fold.logic", "Fold a logical connective of two constants (and/or/xor).",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, ok := e.(*isps.Bin)
			if !ok || !b.Op.IsBoolean() {
				return nil, errPrecond("fold.logic", "%s is not a logical connective", exprText{e})
			}
			x, ok1 := numVal(b.X)
			y, ok2 := numVal(b.Y)
			if !ok1 || !ok2 {
				return nil, errPrecond("fold.logic", "operands of %s are not both constants", exprText{e})
			}
			tx, ty := x != 0, y != 0
			switch b.Op {
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
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("simplify.and.true", e, isps.OpAnd)
			if err != nil {
				return nil, err
			}
			if v, ok := numVal(b.Y); ok && v != 0 && isBooleanValued(b.X, d) {
				return b.X, nil
			}
			if v, ok := numVal(b.X); ok && v != 0 && isBooleanValued(b.Y, d) {
				return b.Y, nil
			}
			return nil, errPrecond("simplify.and.true", "%s has no true constant beside a boolean-valued operand", exprText{e})
		})

	exprRewrite("simplify.and.false", "b and 0 => 0 (the other operand must be side-effect free).",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("simplify.and.false", e, isps.OpAnd)
			if err != nil {
				return nil, err
			}
			if v, ok := numVal(b.Y); ok && v == 0 && pureExpr(b.X) {
				return &isps.Num{Val: 0}, nil
			}
			if v, ok := numVal(b.X); ok && v == 0 && pureExpr(b.Y) {
				return &isps.Num{Val: 0}, nil
			}
			return nil, errPrecond("simplify.and.false", "%s has no false constant beside a pure operand", exprText{e})
		})

	exprRewrite("simplify.or.false", "b or 0 => b for boolean-valued b.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("simplify.or.false", e, isps.OpOr)
			if err != nil {
				return nil, err
			}
			if v, ok := numVal(b.Y); ok && v == 0 && isBooleanValued(b.X, d) {
				return b.X, nil
			}
			if v, ok := numVal(b.X); ok && v == 0 && isBooleanValued(b.Y, d) {
				return b.Y, nil
			}
			return nil, errPrecond("simplify.or.false", "%s has no false constant beside a boolean-valued operand", exprText{e})
		})

	exprRewrite("simplify.or.true", "b or 1 => 1 (the other operand must be side-effect free).",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("simplify.or.true", e, isps.OpOr)
			if err != nil {
				return nil, err
			}
			if v, ok := numVal(b.Y); ok && v != 0 && pureExpr(b.X) {
				return &isps.Num{Val: 1}, nil
			}
			if v, ok := numVal(b.X); ok && v != 0 && pureExpr(b.Y) {
				return &isps.Num{Val: 1}, nil
			}
			return nil, errPrecond("simplify.or.true", "%s has no true constant beside a pure operand", exprText{e})
		})

	exprRewrite("simplify.xor.false", "b xor 0 => b for boolean-valued b.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("simplify.xor.false", e, isps.OpXor)
			if err != nil {
				return nil, err
			}
			if v, ok := numVal(b.Y); ok && v == 0 && isBooleanValued(b.X, d) {
				return b.X, nil
			}
			if v, ok := numVal(b.X); ok && v == 0 && isBooleanValued(b.Y, d) {
				return b.Y, nil
			}
			return nil, errPrecond("simplify.xor.false", "%s has no false constant beside a boolean-valued operand", exprText{e})
		})

	exprRewrite("simplify.not.not", "not not b => b for boolean-valued b.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			u, ok := e.(*isps.Un)
			if !ok || u.Op != isps.OpNot {
				return nil, errPrecond("simplify.not.not", "%s is not a negation", exprText{e})
			}
			inner, ok := u.X.(*isps.Un)
			if !ok || inner.Op != isps.OpNot || !isBooleanValued(inner.X, d) {
				return nil, errPrecond("simplify.not.not", "%s is not a double negation of a boolean-valued operand", exprText{e})
			}
			return inner.X, nil
		})

	exprRewrite("simplify.add.zero", "x + 0 => x (and 0 + x => x).",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("simplify.add.zero", e, isps.OpAdd)
			if err != nil {
				return nil, err
			}
			if v, ok := numVal(b.Y); ok && v == 0 {
				return b.X, nil
			}
			if v, ok := numVal(b.X); ok && v == 0 {
				return b.Y, nil
			}
			return nil, errPrecond("simplify.add.zero", "%s has no zero operand", exprText{e})
		})

	exprRewrite("simplify.sub.zero", "x - 0 => x.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("simplify.sub.zero", e, isps.OpSub)
			if err != nil {
				return nil, err
			}
			if v, ok := numVal(b.Y); ok && v == 0 {
				return b.X, nil
			}
			return nil, errPrecond("simplify.sub.zero", "%s does not subtract zero", exprText{e})
		})

	exprRewrite("simplify.sub.self", "x - x => 0 for side-effect-free x.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("simplify.sub.self", e, isps.OpSub)
			if err != nil {
				return nil, err
			}
			if !isps.Equal(b.X, b.Y) || !pureExpr(b.X) {
				return nil, errPrecond("simplify.sub.self", "%s is not a pure self-subtraction", exprText{e})
			}
			return &isps.Num{Val: 0}, nil
		})

	exprRewrite("simplify.mul.one", "x * 1 => x (and 1 * x => x).",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("simplify.mul.one", e, isps.OpMul)
			if err != nil {
				return nil, err
			}
			if v, ok := numVal(b.Y); ok && v == 1 {
				return b.X, nil
			}
			if v, ok := numVal(b.X); ok && v == 1 {
				return b.Y, nil
			}
			return nil, errPrecond("simplify.mul.one", "%s has no unit operand", exprText{e})
		})

	exprRewrite("simplify.mul.zero", "x * 0 => 0 for side-effect-free x.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("simplify.mul.zero", e, isps.OpMul)
			if err != nil {
				return nil, err
			}
			if v, ok := numVal(b.Y); ok && v == 0 && pureExpr(b.X) {
				return &isps.Num{Val: 0}, nil
			}
			if v, ok := numVal(b.X); ok && v == 0 && pureExpr(b.Y) {
				return &isps.Num{Val: 0}, nil
			}
			return nil, errPrecond("simplify.mul.zero", "%s has no zero operand beside a pure operand", exprText{e})
		})

	exprRewrite("simplify.div.one", "x / 1 => x.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("simplify.div.one", e, isps.OpDiv)
			if err != nil {
				return nil, err
			}
			if v, ok := numVal(b.Y); ok && v == 1 {
				return b.X, nil
			}
			return nil, errPrecond("simplify.div.one", "%s does not divide by one", exprText{e})
		})

	// --- comparison and negation rewriting ---------------------------------

	exprRewrite("rewrite.subeq", "(a - b) = 0 => a = b (exact in modular arithmetic).",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("rewrite.subeq", e, isps.OpEq)
			if err != nil {
				return nil, err
			}
			sub, ok := b.X.(*isps.Bin)
			v, isZero := numVal(b.Y)
			if !ok || sub.Op != isps.OpSub || !isZero || v != 0 {
				return nil, errPrecond("rewrite.subeq", "%s is not of the form (a - b) = 0", exprText{e})
			}
			return &isps.Bin{Op: isps.OpEq, X: sub.X, Y: sub.Y}, nil
		})

	exprRewrite("rewrite.commute.rel", "a R b => b R' a for any comparison (= and <> stay, < and > swap, <= and >= swap); operands must be side-effect free.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, ok := e.(*isps.Bin)
			if !ok || !b.Op.IsComparison() {
				return nil, errPrecond("rewrite.commute.rel", "%s is not a comparison", exprText{e})
			}
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
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("rewrite.commute.add", e, isps.OpAdd)
			if err != nil {
				return nil, err
			}
			if !pureExpr(b.X) || !pureExpr(b.Y) {
				return nil, errPrecond("rewrite.commute.add", "operands of %s have side effects", exprText{e})
			}
			return &isps.Bin{Op: isps.OpAdd, X: b.Y, Y: b.X}, nil
		})

	exprRewrite("rewrite.commute.logic", "a and b => b and a (likewise or, xor); operands must be side-effect free.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, ok := e.(*isps.Bin)
			if !ok || !b.Op.IsBoolean() {
				return nil, errPrecond("rewrite.commute.logic", "%s is not a logical connective", exprText{e})
			}
			if !pureExpr(b.X) || !pureExpr(b.Y) {
				return nil, errPrecond("rewrite.commute.logic", "operands of %s have side effects", exprText{e})
			}
			return &isps.Bin{Op: b.Op, X: b.Y, Y: b.X}, nil
		})

	exprRewrite("rewrite.assoc.add", "(a + b) + c => a + (b + c); operands must be side-effect free.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("rewrite.assoc.add", e, isps.OpAdd)
			if err != nil {
				return nil, err
			}
			inner, ok := b.X.(*isps.Bin)
			if !ok || inner.Op != isps.OpAdd || !pureExpr(e) {
				return nil, errPrecond("rewrite.assoc.add", "%s is not a pure (a + b) + c", exprText{e})
			}
			return &isps.Bin{Op: isps.OpAdd, X: inner.X,
				Y: &isps.Bin{Op: isps.OpAdd, X: inner.Y, Y: b.Y}}, nil
		})

	exprRewrite("rewrite.addsub.cancel", "(a + b) - a => b, and (b + a) - a => b; pure operands.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("rewrite.addsub.cancel", e, isps.OpSub)
			if err != nil {
				return nil, err
			}
			add, ok := b.X.(*isps.Bin)
			if !ok || add.Op != isps.OpAdd || !pureExpr(e) {
				return nil, errPrecond("rewrite.addsub.cancel", "%s is not a pure (a + b) - c", exprText{e})
			}
			if isps.Equal(add.X, b.Y) {
				return add.Y, nil
			}
			if isps.Equal(add.Y, b.Y) {
				return add.X, nil
			}
			return nil, errPrecond("rewrite.addsub.cancel", "subtrahend of %s matches neither addend", exprText{e})
		})

	exprRewrite("rewrite.subadd.cancel", "(a - b) + b => a; pure operands (exact in modular arithmetic).",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("rewrite.subadd.cancel", e, isps.OpAdd)
			if err != nil {
				return nil, err
			}
			sub, ok := b.X.(*isps.Bin)
			if !ok || sub.Op != isps.OpSub || !pureExpr(e) || !isps.Equal(sub.Y, b.Y) {
				return nil, errPrecond("rewrite.subadd.cancel", "%s is not a pure (a - b) + b", exprText{e})
			}
			return sub.X, nil
		})

	exprRewrite("rewrite.demorgan.and", "not (a and b) => (not a) or (not b); pure operands.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			u, ok := e.(*isps.Un)
			if !ok || u.Op != isps.OpNot {
				return nil, errPrecond("rewrite.demorgan.and", "%s is not a negation", exprText{e})
			}
			b, ok := u.X.(*isps.Bin)
			if !ok || b.Op != isps.OpAnd || !pureExpr(b) {
				return nil, errPrecond("rewrite.demorgan.and", "%s is not a pure negated conjunction", exprText{e})
			}
			return &isps.Bin{Op: isps.OpOr,
				X: &isps.Un{Op: isps.OpNot, X: b.X},
				Y: &isps.Un{Op: isps.OpNot, X: b.Y}}, nil
		})

	exprRewrite("rewrite.demorgan.or", "not (a or b) => (not a) and (not b); pure operands.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			u, ok := e.(*isps.Un)
			if !ok || u.Op != isps.OpNot {
				return nil, errPrecond("rewrite.demorgan.or", "%s is not a negation", exprText{e})
			}
			b, ok := u.X.(*isps.Bin)
			if !ok || b.Op != isps.OpOr || !pureExpr(b) {
				return nil, errPrecond("rewrite.demorgan.or", "%s is not a pure negated disjunction", exprText{e})
			}
			return &isps.Bin{Op: isps.OpAnd,
				X: &isps.Un{Op: isps.OpNot, X: b.X},
				Y: &isps.Un{Op: isps.OpNot, X: b.Y}}, nil
		})

	exprRewrite("rewrite.not.rel", "not (a = b) => a <> b, and every complementary comparison pair.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			u, ok := e.(*isps.Un)
			if !ok || u.Op != isps.OpNot {
				return nil, errPrecond("rewrite.not.rel", "%s is not a negation", exprText{e})
			}
			b, ok := u.X.(*isps.Bin)
			if !ok || !b.Op.IsComparison() {
				return nil, errPrecond("rewrite.not.rel", "%s does not negate a comparison", exprText{e})
			}
			comp := map[isps.Op]isps.Op{
				isps.OpEq: isps.OpNe, isps.OpNe: isps.OpEq,
				isps.OpLt: isps.OpGe, isps.OpGe: isps.OpLt,
				isps.OpGt: isps.OpLe, isps.OpLe: isps.OpGt,
			}
			return &isps.Bin{Op: comp[b.Op], X: b.X, Y: b.Y}, nil
		})

	exprRewrite("rewrite.neg.neg", "-(-x) => x.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			u, ok := e.(*isps.Un)
			if !ok || u.Op != isps.OpNeg {
				return nil, errPrecond("rewrite.neg.neg", "%s is not a negation", exprText{e})
			}
			inner, ok := u.X.(*isps.Un)
			if !ok || inner.Op != isps.OpNeg {
				return nil, errPrecond("rewrite.neg.neg", "%s is not a double negation", exprText{e})
			}
			return inner.X, nil
		})

	exprRewrite("rewrite.add.neg", "a + (-b) => a - b.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, err := wantBin("rewrite.add.neg", e, isps.OpAdd)
			if err != nil {
				return nil, err
			}
			u, ok := b.Y.(*isps.Un)
			if !ok || u.Op != isps.OpNeg {
				return nil, errPrecond("rewrite.add.neg", "%s does not add a negation", exprText{e})
			}
			return &isps.Bin{Op: isps.OpSub, X: b.X, Y: u.X}, nil
		})

	exprRewrite("rewrite.eq.le.zero", "a = 0 <=> a <= 0 (unsigned values are never below zero); rewrites in either direction.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, ok := e.(*isps.Bin)
			if !ok || (b.Op != isps.OpEq && b.Op != isps.OpLe) {
				return nil, errPrecond("rewrite.eq.le.zero", "%s is neither = nor <=", exprText{e})
			}
			if v, isNum := numVal(b.Y); !isNum || v != 0 {
				return nil, errPrecond("rewrite.eq.le.zero", "%s does not compare against zero", exprText{e})
			}
			op := isps.OpLe
			if b.Op == isps.OpLe {
				op = isps.OpEq
			}
			return &isps.Bin{Op: op, X: b.X, Y: b.Y}, nil
		})

	exprRewrite("rewrite.ne.to.gt", "a <> 0 => a > 0 (unsigned), and a > 0 => a <> 0.",
		func(e isps.Expr, d *isps.Description) (isps.Expr, error) {
			b, ok := e.(*isps.Bin)
			if !ok || (b.Op != isps.OpNe && b.Op != isps.OpGt) {
				return nil, errPrecond("rewrite.ne.to.gt", "%s is neither <> nor >", exprText{e})
			}
			if v, isNum := numVal(b.Y); !isNum || v != 0 {
				return nil, errPrecond("rewrite.ne.to.gt", "%s does not compare against zero", exprText{e})
			}
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

	register(&Transformation{
		Name:     "if.true",
		Category: Local,
		Effect:   Preserving,
		Doc:      "Replace `if c then A else B` by A when c is a nonzero constant.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			return foldIfConst(d, at, true)
		},
	})

	register(&Transformation{
		Name:     "if.false",
		Category: Local,
		Effect:   Preserving,
		Doc:      "Replace `if c then A else B` by B when c is the constant 0.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			return foldIfConst(d, at, false)
		},
	})

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

	register(&Transformation{
		Name:     "exit.false",
		Category: Local,
		Effect:   Preserving,
		Doc:      "Delete `exit_when (0)`.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			s, ok := blk.Stmts[idx].(*isps.ExitWhenStmt)
			if !ok {
				return nil, errPrecond("exit.false", "path %s is not an exit_when", at)
			}
			if v, isNum := numVal(s.Cond); !isNum || v != 0 {
				return nil, errPrecond("exit.false", "condition %s is not the constant 0", exprText{s.Cond})
			}
			nd, err := d.SpliceAtDesc(parentPath, idx, 1)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "deleted never-taken exit"}, nil
		},
	})
}

// foldIfConst implements if.true and if.false.
func foldIfConst(d *isps.Description, at isps.Path, wantTrue bool) (*Outcome, error) {
	name := "if.false"
	if wantTrue {
		name = "if.true"
	}
	blk, parentPath, idx, err := resolveStmtIndex(d, at)
	if err != nil {
		return nil, err
	}
	s, ok := blk.Stmts[idx].(*isps.IfStmt)
	if !ok {
		return nil, errPrecond(name, "path %s is not a conditional", at)
	}
	v, isNum := numVal(s.Cond)
	if !isNum || (v != 0) != wantTrue {
		return nil, errPrecond(name, "condition %s is not the required constant", exprText{s.Cond})
	}
	keep := s.Then
	if !wantTrue {
		keep = s.Else
	}
	nd, err := d.SpliceAtDesc(parentPath, idx, 1, keep.Stmts...)
	if err != nil {
		return nil, err
	}
	return &Outcome{Desc: nd, Note: "folded constant conditional"}, nil
}
