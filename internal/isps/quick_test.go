package isps

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestQuickPathRoundTrip: every path survives String/ParsePath.
func TestQuickPathRoundTrip(t *testing.T) {
	f := func(steps []uint8) bool {
		p := make(Path, len(steps))
		for i, s := range steps {
			p[i] = int(s)
		}
		q, err := ParsePath(p.String())
		return err == nil && p.Equal(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickPathChildParent: Child and Parent are inverses.
func TestQuickPathChildParent(t *testing.T) {
	f := func(steps []uint8, next uint8) bool {
		p := make(Path, len(steps))
		for i, s := range steps {
			p[i] = int(s)
		}
		c := p.Child(int(next))
		parent, last := c.Parent()
		return parent.Equal(p) && last == int(next) && len(c) == len(p)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// exprValue is a generated expression together with its expected value
// under an environment where every variable holds its index.
type genExpr struct {
	e Expr
}

// Generate builds random expressions for quick.
func (genExpr) Generate(r *rand.Rand, size int) reflect.Value {
	var gen func(depth int) Expr
	vars := []string{"x0", "x1", "x2"}
	gen = func(depth int) Expr {
		if depth <= 0 || r.Intn(3) == 0 {
			if r.Intn(2) == 0 {
				return &Num{Val: int64(r.Intn(7))}
			}
			return &Ident{Name: vars[r.Intn(len(vars))]}
		}
		ops := []Op{OpAdd, OpSub, OpMul, OpEq, OpNe, OpLt, OpGt, OpLe, OpGe, OpAnd, OpOr, OpXor}
		if r.Intn(5) == 0 {
			return &Un{Op: OpNot, X: gen(depth - 1)}
		}
		return &Bin{Op: ops[r.Intn(len(ops))], X: gen(depth - 1), Y: gen(depth - 1)}
	}
	return reflect.ValueOf(genExpr{e: gen(4)})
}

// TestQuickExprPrintParse: ExprString output reparses to an equal tree.
func TestQuickExprPrintParse(t *testing.T) {
	f := func(g genExpr) bool {
		text := ExprString(g.e)
		back, err := ParseExpr(text)
		if err != nil {
			t.Logf("unparseable: %s (%v)", text, err)
			return false
		}
		return Equal(g.e, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickFreshNameNeverCollides: the fresh name is never declared or used.
func TestQuickFreshNameNeverCollides(t *testing.T) {
	d := MustParse(`d.operation := begin
** S **
  x0: integer, x1: integer, temp: integer, temp1: integer,
  d.execute := begin
    input (x0);
    x1 <- x0;
    output (x1);
  end
end`)
	f := func(pick uint8) bool {
		bases := []string{"temp", "x0", "t", "zz"}
		name := FreshName(d, bases[int(pick)%len(bases)])
		if IsKeyword(name) {
			return false
		}
		if d.Reg(name) != nil || d.Func(name) != nil {
			return false
		}
		return !UsedNames(d)[name]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
