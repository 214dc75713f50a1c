package transform

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"extra/internal/interp"
	"extra/internal/isps"
)

func TestRegistryIs75InSevenCategories(t *testing.T) {
	all := All()
	if len(all) != 75 {
		t.Errorf("library has %d transformations, the paper's has 75", len(all))
	}
	byCat := map[Category]int{}
	for _, tr := range all {
		byCat[tr.Category]++
		if tr.Doc == "" {
			t.Errorf("%s has no documentation", tr.Name)
		}
		if tr.Apply == nil {
			t.Errorf("%s has no Apply", tr.Name)
		}
	}
	for _, c := range []Category{Local, Motion, Loop, Global, Routine, Constraint, Augment} {
		if byCat[c] == 0 {
			t.Errorf("category %s is empty", c)
		}
	}
	if _, err := Get("fold.add"); err != nil {
		t.Errorf("Get(fold.add): %v", err)
	}
	if _, err := Get("no.such"); err == nil {
		t.Error("Get(no.such) succeeded")
	}
}

// source is a description around the given register decls and body.
func source(decls, body string) string {
	return "t.operation := begin\n** S **\n" + decls + "\nt.execute := begin\n" + body + "\nend\nend"
}

// parse builds a description around the given register decls and body.
func parse(t *testing.T, decls, body string) *isps.Description {
	t.Helper()
	src := source(decls, body)
	d, err := isps.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if err := isps.Validate(d); err != nil {
		t.Fatalf("validate: %v\n%s", err, src)
	}
	return d
}

// findStmt returns the path of the first statement matching the predicate.
func findStmt(t *testing.T, d *isps.Description, pred func(isps.Stmt) bool) isps.Path {
	t.Helper()
	p, ok := isps.Find(d, func(n isps.Node) bool {
		s, isStmt := n.(isps.Stmt)
		return isStmt && pred(s)
	})
	if !ok {
		t.Fatal("no statement matches")
	}
	return p
}

// apply runs the named transformation and fails the test on error.
func apply(t *testing.T, d *isps.Description, name string, at isps.Path, args Args) *Outcome {
	t.Helper()
	tr, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Apply(d, at, args)
	if err != nil {
		t.Fatalf("%s: %v\nin:\n%s", name, err, isps.Format(d))
	}
	if err := isps.Validate(out.Desc); err != nil {
		t.Fatalf("%s produced an invalid description: %v\n%s", name, err, isps.Format(out.Desc))
	}
	return out
}

// mustFail asserts the transformation's preconditions reject the input,
// and returns the refusal.
func mustFail(t *testing.T, d *isps.Description, name string, at isps.Path, args Args, wantMsg string) error {
	t.Helper()
	tr, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Apply(d, at, args)
	if err == nil {
		t.Fatalf("%s unexpectedly succeeded", name)
	}
	if wantMsg != "" && !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("%s: error %q does not mention %q", name, err, wantMsg)
	}
	return err
}

// refused prefixes the want column of a unit-table row whose
// transformation must refuse the expression with a precondition message
// naming the rest of the column.
const refused = "refused: "

// mustRefuse asserts the transformation refuses the input with a
// precondition failure whose message mentions wantMsg.
func mustRefuse(t *testing.T, d *isps.Description, name string, at isps.Path, wantMsg string) {
	t.Helper()
	err := mustFail(t, d, name, at, nil, wantMsg)
	if _, ok := AsPrecond(err); !ok {
		t.Fatalf("%s: refused with %v, not a precondition failure", name, err)
	}
}

// diffCheck runs old and new descriptions on randomized inputs and memory
// and requires identical outputs and final memory. adapt transforms the old
// input vector into the new one (nil for identity).
func diffCheck(t *testing.T, old, new *isps.Description, rounds int, maxVal uint64, adapt func([]uint64) ([]uint64, []uint64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	nIn := len(old.Inputs())
	for r := 0; r < rounds; r++ {
		raw := make([]uint64, nIn)
		for i := range raw {
			raw[i] = rng.Uint64() % (maxVal + 1)
		}
		oldIn, newIn := raw, raw
		if adapt != nil {
			oldIn, newIn = adapt(raw)
		}
		st1 := interp.NewState()
		for a := uint64(0); a < 64; a++ {
			st1.Store(a, byte(rng.Intn(4))) // small alphabet: collisions likely
		}
		st2 := st1.Clone()
		r1, err1 := interp.Run(context.Background(), old, oldIn, st1, 100000)
		r2, err2 := interp.Run(context.Background(), new, newIn, st2, 100000)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("round %d: errors diverge: %v vs %v\nold:\n%s\nnew:\n%s", r, err1, err2, isps.Format(old), isps.Format(new))
		}
		if err1 != nil {
			continue
		}
		if !reflect.DeepEqual(r1.Outputs, r2.Outputs) {
			t.Fatalf("round %d (inputs %v): outputs %v vs %v\nold:\n%s\nnew:\n%s",
				r, oldIn, r1.Outputs, r2.Outputs, isps.Format(old), isps.Format(new))
		}
		for a := uint64(0); a < 64; a++ {
			if st1.Load(a) != st2.Load(a) {
				t.Fatalf("round %d: memory differs at %d: %d vs %d", r, a, st1.Load(a), st2.Load(a))
			}
		}
	}
}

func TestFoldAdd(t *testing.T) {
	d := parse(t, "x: integer,", "x <- 2 + 3;\noutput (x);")
	at, _ := isps.Find(d, func(n isps.Node) bool {
		b, ok := n.(*isps.Bin)
		return ok && b.Op == isps.OpAdd
	})
	out := apply(t, d, "fold.add", at, nil)
	rhs := out.Desc.Routine().Body.Stmts[0].(*isps.AssignStmt).RHS
	if n, ok := rhs.(*isps.Num); !ok || n.Val != 5 {
		t.Errorf("folded to %s", isps.ExprString(rhs))
	}
	diffCheck(t, d, out.Desc, 3, 10, nil)
}

// unitRow is one row of a unit table of the expression rewrites: the
// transformation, the expression and what it rewrites to, or refused and a
// word of the precondition message refusing it.
type unitRow struct{ name, expr, want string }

// foldRows are the constant folds' unit table, over constants only.
var foldRows = []unitRow{
	{"fold.add", "2 + 3", "5"},
	{"fold.sub", "7 - 3", "4"},
	{"fold.mul", "6 * 7", "42"},
	{"fold.div", "7 / 2", "3"},
	{"fold.compare", "3 = 3", "1"},
	{"fold.compare", "3 < 2", "0"},
	{"fold.not", "not 0", "1"},
	{"fold.not", "not 5", "0"},
	{"fold.logic", "1 and 0", "0"},
	{"fold.logic", "0 or 1", "1"},
	{"fold.logic", "1 xor 1", "0"},
	{"fold.div", "7 / 0", refused + "nonzero"},
}

// identityDecls declares what the identity rows read: integers a, b, c,
// flags f, g, and a function h, whose calls are impure.
const identityDecls = "x: integer, a: integer, b: integer, c: integer, f<>, g<>,\nh()<7:0> := begin h <- a; end"

// identityRows are the algebraic identities' and rewrites' unit table.
var identityRows = []unitRow{
	{"simplify.add.zero", "a + 0", "a"},
	{"simplify.add.zero", "0 + a", "a"},
	{"simplify.sub.zero", "a - 0", "a"},
	{"simplify.sub.self", "a - a", "0"},
	{"simplify.mul.one", "a * 1", "a"},
	{"simplify.mul.zero", "a * 0", "0"},
	{"simplify.div.one", "a / 1", "a"},
	{"simplify.and.true", "f and 1", "f"},
	{"simplify.and.false", "f and 0", "0"},
	{"simplify.or.false", "f or 0", "f"},
	{"simplify.or.true", "f or 1", "1"},
	{"simplify.xor.false", "f xor 0", "f"},
	{"simplify.and.self", "f and f", "f"},
	{"simplify.or.self", "f or f", "f"},
	{"rewrite.subeq", "(a - b) = 0", "a = b"},
	{"rewrite.commute.rel", "a = b", "b = a"},
	{"rewrite.commute.rel", "a < b", "b > a"},
	{"rewrite.commute.add", "a + b", "b + a"},
	{"rewrite.assoc.add", "(a + b) + c", "a + (b + c)"},
	{"rewrite.addsub.cancel", "(a + b) - a", "b"},
	{"rewrite.addsub.cancel", "(b + a) - a", "b"},
	{"rewrite.subadd.cancel", "(a - b) + b", "a"},
	{"rewrite.not.rel", "not (a = b)", "a <> b"},
	{"rewrite.not.rel", "not (a < b)", "a >= b"},
	{"rewrite.demorgan.and", "not (f and g)", "not f or not g"},
	{"rewrite.demorgan.or", "not (f or g)", "not f and not g"},
	{"simplify.not.not", "not not f", "f"},
	{"rewrite.eq.le.zero", "a = 0", "a <= 0"},
	{"rewrite.eq.le.zero", "a <= 0", "a = 0"},
	{"rewrite.ne.to.gt", "a <> 0", "a > 0"},
	{"rewrite.ne.to.gt", "a > 0", "a <> 0"},
	{"rewrite.zero.lt", "0 < a", "a <> 0"},
	{"rewrite.neg.neg", "-(-a)", "a"},
	{"rewrite.add.neg", "a + (-b)", "a - b"},
	// Every operand order a rewrite accepts.
	{"simplify.and.true", "1 and f", "f"},
	{"simplify.and.false", "0 and f", "0"},
	{"simplify.or.false", "0 or f", "f"},
	{"simplify.or.true", "1 or f", "1"},
	{"simplify.xor.false", "0 xor f", "f"},
	{"simplify.mul.one", "1 * a", "a"},
	{"simplify.mul.zero", "0 * a", "0"},
	{"rewrite.commute.logic", "f and g", "g and f"},
	{"rewrite.assoc.sub", "(a + b) - c", "a + (b - c)"},
	{"rewrite.zero.lt", "a <> 0", "0 < a"},
	// Each semantic precondition refuses a node of the right shape.
	{"simplify.and.true", "a and 1", refused + "boolean-valued"},
	{"simplify.mul.zero", "h() * 0", refused + "pure"},
}

func TestFoldVariants(t *testing.T) {
	for _, c := range foldRows {
		d := parse(t, "x: integer,", "x <- "+c.expr+";\noutput (x);")
		at := isps.Path{0, 1, 0, 0, 1} // section 0, decl 1 (routine), body, stmt 0, RHS
		if msg, ok := strings.CutPrefix(c.want, refused); ok {
			mustRefuse(t, d, c.name, at, msg)
			continue
		}
		out := apply(t, d, c.name, at, nil)
		got := isps.ExprString(out.Desc.Routine().Body.Stmts[0].(*isps.AssignStmt).RHS)
		if got != c.want {
			t.Errorf("%s(%s) = %s, want %s", c.name, c.expr, got, c.want)
		}
		diffCheck(t, d, out.Desc, 2, 5, nil)
	}
}

func TestSimplifyIdentities(t *testing.T) {
	for _, c := range identityRows {
		d := parse(t, identityDecls, "input (a, b, c, f, g);\nx <- "+c.expr+";\noutput (x);")
		at := isps.Path{0, 7, 0, 1, 1} // routine is decl 7; stmt 1 is the assignment; RHS
		if msg, ok := strings.CutPrefix(c.want, refused); ok {
			mustRefuse(t, d, c.name, at, msg)
			continue
		}
		out := apply(t, d, c.name, at, nil)
		got := isps.ExprString(out.Desc.Routine().Body.Stmts[1].(*isps.AssignStmt).RHS)
		if got != c.want {
			t.Errorf("%s(%s) = %s, want %s", c.name, c.expr, got, c.want)
		}
		diffCheck(t, d, out.Desc, 8, 3, nil)
	}
}

func TestIfReverse(t *testing.T) {
	d := parse(t, "a: integer, x: integer,",
		"input (a);\nif a = 0 then x <- 1; else x <- 2; end_if;\noutput (x);")
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	out := apply(t, d, "if.reverse", at, nil)
	ifs := out.Desc.Routine().Body.Stmts[1].(*isps.IfStmt)
	if isps.ExprString(ifs.Cond) != "not a = 0" {
		t.Errorf("cond = %s", isps.ExprString(ifs.Cond))
	}
	diffCheck(t, d, out.Desc, 6, 2, nil)
}

func TestIfTrueFalseSameEmpty(t *testing.T) {
	d := parse(t, "x: integer,", "if 1 then x <- 1; else x <- 2; end_if;\noutput (x);")
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	out := apply(t, d, "if.true", at, nil)
	if got := isps.StmtString(out.Desc.Routine().Body.Stmts[0]); got != "x <- 1;" {
		t.Errorf("if.true left %q", got)
	}
	diffCheck(t, d, out.Desc, 2, 2, nil)

	d2 := parse(t, "x: integer,", "if 0 then x <- 1; else x <- 2; end_if;\noutput (x);")
	at2 := findStmt(t, d2, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	out2 := apply(t, d2, "if.false", at2, nil)
	if got := isps.StmtString(out2.Desc.Routine().Body.Stmts[0]); got != "x <- 2;" {
		t.Errorf("if.false left %q", got)
	}

	d3 := parse(t, "a: integer, x: integer,",
		"input (a);\nif a = 0 then x <- 7; else x <- 7; end_if;\noutput (x);")
	at3 := findStmt(t, d3, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	out3 := apply(t, d3, "if.same", at3, nil)
	diffCheck(t, d3, out3.Desc, 4, 3, nil)

	d4 := parse(t, "a: integer, x: integer,",
		"input (a);\nif a = 0 then else end_if;\nx <- a;\noutput (x);")
	at4 := findStmt(t, d4, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	out4 := apply(t, d4, "if.empty", at4, nil)
	if len(out4.Desc.Routine().Body.Stmts) != 3 {
		t.Error("if.empty did not remove the conditional")
	}
	diffCheck(t, d4, out4.Desc, 4, 3, nil)
}

func TestMoveSwap(t *testing.T) {
	d := parse(t, "a: integer, b: integer,",
		"input (a, b);\na <- a + 1;\nb <- b + 2;\noutput (a, b);")
	at := isps.Path{0, 2, 0, 1}
	out := apply(t, d, "move.swap", at, nil)
	first := out.Desc.Routine().Body.Stmts[1].(*isps.AssignStmt)
	if first.LHS.(*isps.Ident).Name != "b" {
		t.Error("swap did not reorder")
	}
	diffCheck(t, d, out.Desc, 4, 9, nil)

	// Dependent statements must be rejected.
	d2 := parse(t, "a: integer, b: integer,",
		"input (a, b);\na <- a + 1;\nb <- a + 2;\noutput (a, b);")
	mustFail(t, d2, "move.swap", isps.Path{0, 2, 0, 1}, nil, "not independent")

	// Two memory writes must be rejected.
	d3 := parse(t, "a: integer,",
		"input (a);\nMb[a] <- 1;\nMb[a + 1] <- 2;\noutput (a);")
	mustFail(t, d3, "move.swap", isps.Path{0, 1, 0, 1}, nil, "not independent")
}

func TestGlobalConstProp(t *testing.T) {
	d := parse(t, "f<>, x: integer,",
		"input (x);\nf <- 0;\nif f then x <- 1; else x <- x + 1; end_if;\noutput (x, f);")
	out := apply(t, d, "global.const.prop", nil, Args{"var": "f"})
	ifs := out.Desc.Routine().Body.Stmts[2].(*isps.IfStmt)
	if isps.ExprString(ifs.Cond) != "0" {
		t.Errorf("cond = %s, want 0", isps.ExprString(ifs.Cond))
	}
	diffCheck(t, d, out.Desc, 4, 5, nil)

	// Two definitions must be rejected.
	d2 := parse(t, "f<>, x: integer,",
		"input (x);\nf <- 0;\nf <- 1;\noutput (x, f);")
	mustFail(t, d2, "global.const.prop", nil, Args{"var": "f"}, "single definition")
}

func TestGlobalCopyPropAndDeadCode(t *testing.T) {
	d := parse(t, "a: integer, tmp: integer, x: integer,",
		"input (a);\ntmp <- a;\nx <- tmp + 1;\noutput (x);")
	out := apply(t, d, "global.copy.prop", nil, Args{"var": "tmp"})
	if got := isps.ExprString(out.Desc.Routine().Body.Stmts[2].(*isps.AssignStmt).RHS); got != "a + 1" {
		t.Errorf("copy.prop produced %s", got)
	}
	diffCheck(t, d, out.Desc, 4, 9, nil)

	// Now the copy is dead.
	at := isps.Path{0, 3, 0, 1}
	out2 := apply(t, out.Desc, "global.dead.assign", at, nil)
	if len(out2.Desc.Routine().Body.Stmts) != 3 {
		t.Error("dead.assign did not remove the copy")
	}
	diffCheck(t, out.Desc, out2.Desc, 4, 9, nil)

	// And the declaration is unused.
	out3 := apply(t, out2.Desc, "global.dead.decl", nil, Args{"var": "tmp"})
	if out3.Desc.Reg("tmp") != nil {
		t.Error("dead.decl did not remove the declaration")
	}

	// Live targets must be rejected.
	d4 := parse(t, "a: integer,", "input (a);\na <- a + 1;\noutput (a);")
	mustFail(t, d4, "global.dead.assign", isps.Path{0, 1, 0, 1}, nil, "live")
}

func TestGlobalRename(t *testing.T) {
	d := parse(t, "a: integer,", "input (a);\na <- a + 1;\noutput (a);")
	out := apply(t, d, "global.rename", nil, Args{"from": "a", "to": "z"})
	if out.Desc.Reg("z") == nil || out.Desc.Reg("a") != nil {
		t.Error("rename did not update the declaration")
	}
	if got := out.Desc.Inputs()[0]; got != "z" {
		t.Errorf("input operand = %s", got)
	}
	diffCheck(t, d, out.Desc, 3, 9, nil)
}

func TestRoutineInline(t *testing.T) {
	src := `t.operation := begin
** S **
  p: integer, ch: character,
  f()<7:0> := begin
    f <- Mb[p];
    p <- p + 1;
  end
** P **
  t.execute := begin
    input (p, ch);
    repeat
      exit_when (ch = f());
    end_repeat;
    output (p);
  end
end`
	d := isps.MustParse(src)
	if err := isps.Validate(d); err != nil {
		t.Fatal(err)
	}
	// Inline at the exit_when inside the loop.
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.ExitWhenStmt); return ok })
	out := apply(t, d, "routine.inline", at, Args{"temp": "t0"})
	loop := out.Desc.Routine().Body.Stmts[1].(*isps.RepeatStmt)
	if len(loop.Body.Stmts) != 3 {
		t.Fatalf("inlined loop body has %d statements:\n%s", len(loop.Body.Stmts), isps.Format(out.Desc))
	}
	if got := isps.StmtString(loop.Body.Stmts[0]); got != "t0 <- Mb[p];" {
		t.Errorf("first inlined statement: %q", got)
	}
	// Memory holds only small values, so the search terminates.
	diffCheck(t, d, out.Desc, 6, 3, func(raw []uint64) ([]uint64, []uint64) {
		in := []uint64{raw[0] % 8, raw[1] % 3}
		return in, in
	})
	// Now f is uncalled and removable.
	out2 := apply(t, out.Desc, "routine.remove", nil, Args{"func": "f"})
	if out2.Desc.Func("f") != nil {
		t.Error("routine.remove left the function")
	}
	mustFail(t, d, "routine.remove", nil, Args{"func": "f"}, "still called")
}

func TestConstraintFix(t *testing.T) {
	d := parse(t, "df<>, x: integer,",
		"input (df, x);\nif df then x <- x - 1; else x <- x + 1; end_if;\noutput (x);")
	out := apply(t, d, "constraint.fix", nil, Args{"operand": "df", "value": "0"})
	if got := out.Desc.Inputs(); len(got) != 1 || got[0] != "x" {
		t.Errorf("inputs after fix = %v", got)
	}
	if len(out.Constraints) != 1 || out.Constraints[0].String()[:6] != "df = 0" {
		t.Errorf("constraints = %v", out.Constraints)
	}
	if out.Adaptor == nil || out.Adaptor.Removed != "df" || out.Adaptor.RemovedPos != 0 {
		t.Errorf("adaptor = %+v", out.Adaptor)
	}
	// Differential: old takes (df, x) with df=0; new takes (x).
	diffCheck(t, d, out.Desc, 5, 9, func(raw []uint64) ([]uint64, []uint64) {
		return []uint64{0, raw[1]}, []uint64{raw[1]}
	})
}

func TestConstraintOffset(t *testing.T) {
	d := parse(t, "len<7:0>, x: integer,",
		"input (len, x);\nx <- x + len;\noutput (x);")
	out := apply(t, d, "constraint.offset", nil, Args{"operand": "len", "abstract": "N", "delta": "-1"})
	if got := out.Desc.Inputs(); got[0] != "N" {
		t.Errorf("inputs = %v", got)
	}
	if out.Adaptor == nil || !out.Adaptor.Reencoded || out.Adaptor.Delta != -1 {
		t.Errorf("adaptor = %+v", out.Adaptor)
	}
	// Old len = new N - 1.
	diffCheck(t, d, out.Desc, 5, 100, func(raw []uint64) ([]uint64, []uint64) {
		n := raw[0]%200 + 1
		return []uint64{n - 1, raw[1]}, []uint64{n, raw[1]}
	})
}

func TestAugmentPrologueAndEpilogue(t *testing.T) {
	d := parse(t, "zf<>, di: integer, cx: integer,",
		"input (zf, di, cx);\nif cx = 0 then zf <- 0; else zf <- 1; end_if;\noutput (zf, di, cx);")
	out := apply(t, d, "augment.prologue", nil, Args{"stmt": "zf <- 0;"})
	if got := out.Desc.Inputs(); len(got) != 2 {
		t.Errorf("inputs = %v", got)
	}
	if len(out.Prologue) != 1 {
		t.Error("prologue not recorded")
	}
	// Prologue with a fresh temporary.
	out2 := apply(t, out.Desc, "augment.prologue", nil,
		Args{"stmt": "temp <- di;", "decl": "temp", "width": "16"})
	if out2.Desc.Reg("temp") == nil {
		t.Error("temp not declared")
	}
	// Epilogue replacing the outputs.
	out3 := apply(t, out2.Desc, "augment.epilogue", nil,
		Args{"stmts": "if zf then output (di - temp); else output (0); end_if;"})
	if len(out3.RemovedOutputs) != 3 {
		t.Errorf("removed outputs = %d", len(out3.RemovedOutputs))
	}
	body := out3.Desc.Routine().Body
	if _, isIf := body.Stmts[len(body.Stmts)-1].(*isps.IfStmt); !isIf {
		t.Errorf("epilogue not installed:\n%s", isps.Format(out3.Desc))
	}
	// Epilogue with a loop is rejected.
	mustFail(t, out2.Desc, "augment.epilogue", nil,
		Args{"stmts": "repeat exit_when (zf); end_repeat;"}, "epilogue may not contain")
}

func TestExitSplitMerge(t *testing.T) {
	d := parse(t, "a: integer, b: integer,",
		"input (a, b);\nrepeat\nexit_when (a = 0 or b = 0);\na <- a - 1;\nb <- b - 1;\nend_repeat;\noutput (a, b);")
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.ExitWhenStmt); return ok })
	out := apply(t, d, "exit.split", at, nil)
	loop := out.Desc.Routine().Body.Stmts[1].(*isps.RepeatStmt)
	if len(loop.Body.Stmts) != 4 {
		t.Fatalf("split produced %d statements", len(loop.Body.Stmts))
	}
	diffCheck(t, d, out.Desc, 5, 6, nil)
	// Merge back.
	out2 := apply(t, out.Desc, "exit.merge", at, nil)
	diffCheck(t, out.Desc, out2.Desc, 5, 6, nil)
}

func TestLoopRotateGuarded(t *testing.T) {
	d := parse(t, "n: integer, s: integer,",
		"input (n, s);\nif n <> 0 then\nrepeat\ns <- s + n;\nn <- n - 1;\nexit_when (n = 0);\nend_repeat;\nend_if;\noutput (s);")
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	out := apply(t, d, "loop.rotate.guarded", at, nil)
	if _, isLoop := out.Desc.Routine().Body.Stmts[1].(*isps.RepeatStmt); !isLoop {
		t.Fatalf("rotation did not produce a loop:\n%s", isps.Format(out.Desc))
	}
	diffCheck(t, d, out.Desc, 8, 7, nil)
}

func TestLoopDeleteDead(t *testing.T) {
	d := parse(t, "x: integer,",
		"input (x);\nrepeat\nexit_when (1);\nx <- x + 1;\nend_repeat;\noutput (x);")
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	out := apply(t, d, "loop.delete.dead", at, nil)
	if len(out.Desc.Routine().Body.Stmts) != 2 {
		t.Error("loop not deleted")
	}
	diffCheck(t, d, out.Desc, 3, 9, nil)
}

func TestLoopInductionIndex(t *testing.T) {
	d := parse(t, "p: integer, n: integer, s: integer,",
		"input (p, n);\nrepeat\nexit_when (n = 0);\ns <- s + Mb[p];\np <- p + 1;\nn <- n - 1;\nend_repeat;\noutput (s, p - 3);")
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	out := apply(t, d, "loop.induction.index", at, Args{"p": "p", "i": "i", "width": "0"})
	text := isps.Format(out.Desc)
	if !strings.Contains(text, "Mb[p + i]") {
		t.Errorf("no base+index access:\n%s", text)
	}
	if !strings.Contains(text, "output (s, p + i - 3);") {
		t.Errorf("post-loop use not rewritten:\n%s", text)
	}
	diffCheck(t, d, out.Desc, 8, 9, func(raw []uint64) ([]uint64, []uint64) {
		in := []uint64{raw[0] % 16, raw[1] % 8}
		return in, in
	})
}

func TestLoopInductionMerge(t *testing.T) {
	d := parse(t, "a: integer, b: integer, n: integer, i: integer, j: integer,",
		"input (a, b, n);\ni <- 0;\nj <- 0;\nrepeat\nexit_when (n = 0);\nMb[b + j] <- Mb[a + i];\ni <- i + 1;\nj <- j + 1;\nn <- n - 1;\nend_repeat;\noutput (i, j);")
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	out := apply(t, d, "loop.induction.merge", at, Args{"keep": "i", "drop": "j"})
	text := isps.Format(out.Desc)
	if strings.Contains(text, "j") {
		t.Errorf("j survives:\n%s", text)
	}
	diffCheck(t, d, out.Desc, 6, 9, func(raw []uint64) ([]uint64, []uint64) {
		in := []uint64{raw[0] % 16, 32 + raw[1]%16, raw[2] % 8}
		return in, in
	})
}

func TestLoopCountdownIntro(t *testing.T) {
	d := parse(t, "base: integer, limit: integer, i: integer, c: character,",
		"input (base, limit, c);\ni <- 0;\nrepeat\nexit_when (i = limit);\nexit_when (Mb[base + i] = c);\ni <- i + 1;\nend_repeat;\nif i = limit then output (0); else output (i + 1); end_if;")
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	out := apply(t, d, "loop.countdown.intro", at, Args{"i": "i", "n": "limit", "len": "len"})
	text := isps.Format(out.Desc)
	if !strings.Contains(text, "exit_when (len = 0);") {
		t.Errorf("limit test not rewritten:\n%s", text)
	}
	if !strings.Contains(text, "if len = 0") {
		t.Errorf("post-loop test not rewritten:\n%s", text)
	}
	diffCheck(t, d, out.Desc, 8, 9, func(raw []uint64) ([]uint64, []uint64) {
		in := []uint64{raw[0] % 16, raw[1] % 8, raw[2] % 3}
		return in, in
	})
}

func TestLoopDoWhileCount(t *testing.T) {
	// The mvc shape: k preloaded with n-1, loop runs k+1 times.
	d := parse(t, "b1: integer, b2: integer, n: integer, k<7:0>,",
		"input (b1, b2, n);\nk <- n - 1;\nrepeat\nMb[b1] <- Mb[b2];\nb1 <- b1 + 1;\nb2 <- b2 + 1;\nexit_when (k = 0);\nk <- k - 1;\nend_repeat;")
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	out := apply(t, d, "loop.dowhile.count", at, Args{"k": "k", "n": "n"})
	if len(out.Constraints) != 1 {
		t.Fatalf("constraints = %v", out.Constraints)
	}
	if out.Constraints[0].Min != 1 || out.Constraints[0].Max != 256 {
		t.Errorf("range = [%d, %d], want [1, 256]", out.Constraints[0].Min, out.Constraints[0].Max)
	}
	// Equivalent only for n in [1, 256].
	diffCheck(t, d, out.Desc, 8, 9, func(raw []uint64) ([]uint64, []uint64) {
		in := []uint64{raw[0] % 16, 32 + raw[1]%16, raw[2]%6 + 1}
		return in, in
	})
	// And n = 0 genuinely diverges (the constraint is necessary): old
	// moves one byte, new moves none.
	st1, st2 := interp.NewState(), interp.NewState()
	st1.Store(32, 'x')
	st2.Store(32, 'x')
	if _, err := interp.Run(context.Background(), d, []uint64{0, 32, 0}, st1, 10000); err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(context.Background(), out.Desc, []uint64{0, 32, 0}, st2, 10000); err != nil {
		t.Fatal(err)
	}
	if st1.Load(0) == st2.Load(0) {
		t.Error("n=0 should distinguish the descriptions (old moves 1 byte)")
	}
}

func TestLoopExitWitness(t *testing.T) {
	// The Rigel index shape after inlining.
	d := parse(t, "base: integer, n: integer, i: integer, ch: character, t0<7:0>,",
		`input (base, n, ch);
i <- 0;
repeat
exit_when (n = 0);
t0 <- Mb[base + i];
i <- i + 1;
exit_when (ch = t0);
n <- n - 1;
end_repeat;
if n = 0 then output (0); else output (i); end_if;`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	exitAt := append(append(isps.Path{}, loopAt...), 0, 3)
	out := apply(t, d, "loop.exit.witness", exitAt, Args{"flag": "fw"})
	text := isps.Format(out.Desc)
	if !strings.Contains(text, "fw <- 0;") || !strings.Contains(text, "exit_when (fw);") {
		t.Errorf("witness structure missing:\n%s", text)
	}
	if !strings.Contains(text, "if fw") {
		t.Errorf("post-loop test not rewritten:\n%s", text)
	}
	diffCheck(t, d, out.Desc, 10, 9, func(raw []uint64) ([]uint64, []uint64) {
		in := []uint64{raw[0] % 16, raw[1] % 8, raw[2] % 3}
		return in, in
	})
}

func TestLoopMoveIncrement(t *testing.T) {
	// CLU-style: step after the found exit; move it up, compensating the
	// found branch (i + 1 becomes i).
	d := parse(t, "base: integer, len: integer, i: integer, ch: character, t0<7:0>, fw<>,",
		`input (base, len, ch);
i <- 0;
fw <- 0;
repeat
exit_when (len = 0);
t0 <- Mb[base + i];
if t0 = ch then fw <- 1; else fw <- 0; end_if;
exit_when (fw);
i <- i + 1;
len <- len - 1;
end_repeat;
if fw then output (i + 1); else output (0); end_if;`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	stepAt := append(append(isps.Path{}, loopAt...), 0, 4)
	out := apply(t, d, "loop.move.increment", stepAt, Args{"dir": "up"})
	text := isps.Format(out.Desc)
	if !strings.Contains(text, "output (i - 1 + 1);") {
		t.Errorf("found-branch use not compensated:\n%s", text)
	}
	diffCheck(t, d, out.Desc, 10, 9, func(raw []uint64) ([]uint64, []uint64) {
		in := []uint64{raw[0] % 16, raw[1] % 8, raw[2] % 3}
		return in, in
	})
}

func TestMoveAcrossExit(t *testing.T) {
	// scasb-style: cx is decremented before the found exit but dead after
	// the loop, so the decrement can sink below the exit.
	d := parse(t, "base: integer, cx: integer, i: integer, ch: character, t0<7:0>, fw<>,",
		`input (base, cx, ch);
i <- 0;
fw <- 0;
repeat
exit_when (cx = 0);
cx <- cx - 1;
t0 <- Mb[base + i];
i <- i + 1;
if t0 = ch then fw <- 1; else fw <- 0; end_if;
exit_when (fw);
end_repeat;
if fw then output (i); else output (0); end_if;`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	// Move cx <- cx - 1 down across the if and the exit: first swap with
	// the reads, then cross the exit.
	step1 := apply(t, d, "move.swap", append(append(isps.Path{}, loopAt...), 0, 1), nil)
	step2 := apply(t, step1.Desc, "move.swap", append(append(isps.Path{}, loopAt...), 0, 2), nil)
	step3 := apply(t, step2.Desc, "move.swap", append(append(isps.Path{}, loopAt...), 0, 3), nil)
	out := apply(t, step3.Desc, "move.across.exit", append(append(isps.Path{}, loopAt...), 0, 4), Args{"dir": "down"})
	loop := out.Desc.Routine().Body.Stmts[3].(*isps.RepeatStmt)
	last := loop.Body.Stmts[len(loop.Body.Stmts)-1]
	if got := isps.StmtString(last); got != "cx <- cx - 1;" {
		t.Errorf("decrement is not last: %q\n%s", got, isps.Format(out.Desc))
	}
	diffCheck(t, d, out.Desc, 10, 9, func(raw []uint64) ([]uint64, []uint64) {
		in := []uint64{raw[0] % 16, raw[1] % 8, raw[2] % 3}
		return in, in
	})
	// Moving a live variable across an exit must fail.
	d5 := parse(t, "n: integer, s: integer,",
		"input (n);\ns <- 0;\nrepeat\ns <- s + 1;\nexit_when (n = 0);\nn <- n - 1;\nend_repeat;\noutput (s);")
	loopAt5 := findStmt(t, d5, func(st isps.Stmt) bool { _, ok := st.(*isps.RepeatStmt); return ok })
	mustFail(t, d5, "move.across.exit",
		append(append(isps.Path{}, loopAt5...), 0, 0), Args{"dir": "down"}, "live at loop exit")
}

func TestGlobalFlagInvert(t *testing.T) {
	d := parse(t, "a: integer, b: integer, zf<>,",
		`input (a, b);
if a = b then zf <- 1; else zf <- 0; end_if;
if zf then output (1); else output (0); end_if;`)
	out := apply(t, d, "global.flag.invert", nil, Args{"flag": "zf", "to": "fw"})
	text := isps.Format(out.Desc)
	if strings.Contains(text, "zf") {
		t.Errorf("zf survives:\n%s", text)
	}
	if !strings.Contains(text, "fw <- 0;") || !strings.Contains(text, "if not fw") {
		t.Errorf("inversion shape wrong:\n%s", text)
	}
	diffCheck(t, d, out.Desc, 6, 3, nil)
}

func TestHoistExpr(t *testing.T) {
	d := parse(t, "p: integer, ch: character, n: integer,",
		`input (p, ch, n);
repeat
exit_when (n = 0);
exit_when (Mb[p + n] = ch);
n <- n - 1;
end_repeat;
output (n);`)
	// Hoist Mb[p + n] out of the second exit.
	memAt, ok := isps.Find(d, func(n isps.Node) bool { _, isMem := n.(*isps.Mem); return isMem })
	if !ok {
		t.Fatal("no Mb reference")
	}
	out := apply(t, d, "move.hoist.expr", memAt, Args{"temp": "t0", "width": "8"})
	text := isps.Format(out.Desc)
	if !strings.Contains(text, "t0 <- Mb[p + n];") || !strings.Contains(text, "exit_when (t0 = ch);") {
		t.Errorf("hoist shape wrong:\n%s", text)
	}
	diffCheck(t, d, out.Desc, 8, 9, func(raw []uint64) ([]uint64, []uint64) {
		in := []uint64{raw[0] % 16, raw[1] % 3, raw[2] % 8}
		return in, in
	})
}

func TestReverseCopyRequiresPattern(t *testing.T) {
	d := parse(t, "len: integer, src: integer, dst: integer,",
		`input (len, src, dst);
if src < dst
then
src <- src + len;
dst <- dst + len;
repeat
exit_when (len = 0);
src <- src - 1;
dst <- dst - 1;
Mb[dst] <- Mb[src];
len <- len - 1;
end_repeat;
else
repeat
exit_when (len = 0);
Mb[dst] <- Mb[src];
src <- src + 1;
dst <- dst + 1;
len <- len - 1;
end_repeat;
end_if;`)
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	out := apply(t, d, "loop.reverse.copy", at, Args{"len": "len", "src": "src", "dst": "dst"})
	if len(out.Constraints) != 1 || out.Constraints[0].Pred == "" {
		t.Fatalf("expected a predicate constraint, got %v", out.Constraints)
	}
	// Differential only on non-overlapping regions.
	diffCheck(t, d, out.Desc, 10, 9, func(raw []uint64) ([]uint64, []uint64) {
		n := raw[0] % 8
		src := raw[1] % 8
		dst := 16 + raw[2]%8
		if raw[0]%2 == 0 {
			src, dst = dst, src
		}
		in := []uint64{n, src, dst}
		return in, in
	})
	// src live after the copy must fail.
	d2 := parse(t, "len: integer, src: integer, dst: integer,",
		strings.Replace(dumpBody(t, d), "end_if;", "end_if;\noutput (src);", 1))
	at2 := findStmt(t, d2, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	mustFail(t, d2, "loop.reverse.copy", at2, Args{"len": "len", "src": "src", "dst": "dst"}, "live after the copy")
}

// dumpBody reproduces a routine body's source text.
func dumpBody(t *testing.T, d *isps.Description) string {
	t.Helper()
	var sb strings.Builder
	for _, s := range d.Routine().Body.Stmts {
		sb.WriteString(isps.StmtString(s))
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestIfPullCommonAndDupInto(t *testing.T) {
	d := parse(t, "a: integer, x: integer, y: integer,",
		`input (a);
if a = 0 then x <- 5; y <- 1; else x <- 5; y <- 2; end_if;
output (x, y);`)
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	out := apply(t, d, "if.pull.common", at, nil)
	if got := isps.StmtString(out.Desc.Routine().Body.Stmts[1]); got != "x <- 5;" {
		t.Errorf("pulled statement = %q", got)
	}
	diffCheck(t, d, out.Desc, 4, 3, nil)
	// And push it back in.
	out2 := apply(t, out.Desc, "move.dup.into.if", isps.Path{0, 3, 0, 1}, nil)
	diffCheck(t, out.Desc, out2.Desc, 4, 3, nil)
}
