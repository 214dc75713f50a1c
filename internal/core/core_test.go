package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"extra/internal/fault"
	"extra/internal/interp"
	"extra/internal/isps"
	"extra/internal/transform"
)

const miniOp = `op.operation := begin
** S **
  a: integer, b: integer,
  op.execute := begin
    input (a, b);
    output (a + b);
  end
end`

const miniIns = `ins.instruction := begin
** S **
  f<>, r: integer, s: integer,
  ins.execute := begin
    input (f, r, s);
    if f
    then
      output (r - s);
    else
      output (r + s);
    end_if;
  end
end`

func newMini(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession(isps.MustParse(miniOp), isps.MustParse(miniIns))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionMiniAnalysis(t *testing.T) {
	s := newMini(t)
	// Fix f = 0 so the "add form" of the instruction is selected, then
	// normalize away the conditional.
	if err := s.FixOperand(InsSide, "f", 0); err != nil {
		t.Fatal(err)
	}
	b, err := s.Finish()
	if err != nil {
		t.Fatalf("Finish: %v\nop:\n%s\nins:\n%s", err, isps.Format(s.Op), isps.Format(s.Ins))
	}
	if b.VarMap["a"] != "r" || b.VarMap["b"] != "s" {
		t.Errorf("VarMap = %v", b.VarMap)
	}
	if b.Steps != s.StepCount() || b.Steps < 3 {
		t.Errorf("steps = %d", b.Steps)
	}
	found := false
	for _, c := range b.Constraints {
		if c.Operand == "f" && c.Val == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("f = 0 constraint missing: %v", b.Constraints)
	}
	// Validate the binding end to end.
	var gen InputGen = func(rng *rand.Rand, in []uint64, _ *interp.Image) []uint64 {
		return append(in, rng.Uint64()%100, rng.Uint64()%100)
	}
	n, err := ValidateBinding(b, gen, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("validated %d, want 50", n)
	}
}

func TestValidateBindingRefutesWrongVariant(t *testing.T) {
	s := newMini(t)
	// Fix f = 1: the instruction subtracts while the operator adds. The
	// common-form check fails, but even if it were skipped, validation
	// must refute the binding.
	if err := s.FixOperand(InsSide, "f", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(); err == nil {
		t.Fatal("subtraction matched addition")
	}
	b := &Binding{
		OpInputs:  []string{"a", "b"},
		InsInputs: []string{"r", "s"},
		Operator:  s.OrigOp,
		Variant:   s.Variant,
	}
	var gen InputGen = func(rng *rand.Rand, in []uint64, _ *interp.Image) []uint64 {
		return append(in, rng.Uint64()%100, 1+rng.Uint64()%100)
	}
	_, err := ValidateBinding(b, gen, 50, 3)
	if err == nil || !strings.Contains(err.Error(), "refuted") {
		t.Errorf("validation err = %v, want refutation", err)
	}
}

func TestAugmentRejectedOnOperatorSide(t *testing.T) {
	s := newMini(t)
	err := s.Apply(OpSide, "augment.prologue", nil, transform.Args{"stmt": "a <- 0;"})
	if err == nil || !strings.Contains(err.Error(), "cannot apply to the operator") {
		t.Errorf("err = %v, want operator-side augment rejection", err)
	}
}

func TestClassicModeRejectsPredicates(t *testing.T) {
	s := newMini(t)
	err := s.Apply(InsSide, "constraint.assert.pred", nil,
		transform.Args{"pred": "(r + s <= 100) or (s + r <= 100)"})
	if !errors.Is(err, ErrComplexConstraint) {
		t.Errorf("err = %v, want ErrComplexConstraint", err)
	}
	s.Extended = true
	if err := s.Apply(InsSide, "constraint.assert.pred", nil,
		transform.Args{"pred": "(r + s <= 100) or (s + r <= 100)"}); err != nil {
		t.Errorf("extended mode rejected the predicate: %v", err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := newMini(t)
	s.Snapshot("before", InsSide)
	if err := s.FixOperand(InsSide, "f", 0); err != nil {
		t.Fatal(err)
	}
	snaps := s.Snapshots()
	before := snaps["before"]
	if before.Reg("f") == nil {
		t.Error("snapshot mutated by later steps")
	}
	// Snapshots are interned: isolation comes from immutability, not
	// defensive clones.
	if !isps.Interned(before) {
		t.Error("snapshot is not interned")
	}
}

func TestNormalizeCountsSteps(t *testing.T) {
	src := `d.operation := begin
** S **
  x: integer,
  d.execute := begin
    x <- 1 + 2 + 3;
    if 0
    then
      x <- 9;
    end_if;
    output (x * 1);
  end
end`
	s, err := NewSession(isps.MustParse(miniOp), isps.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Normalize(InsSide)
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Errorf("normalize took %d steps, want at least folds for +, if 0, * 1", n)
	}
	if n != s.StepCount() {
		t.Errorf("steps not recorded: %d vs %d", n, s.StepCount())
	}
	text := isps.Format(s.Ins)
	if !strings.Contains(text, "x <- 6;") || strings.Contains(text, "if") || strings.Contains(text, "* 1") {
		t.Errorf("normalization incomplete:\n%s", text)
	}
}

func TestInlineCallsTactic(t *testing.T) {
	src := `d.operation := begin
** S **
  p: integer, x: integer,
  f()<7:0> := begin
    f <- Mb[p];
    p <- p + 1;
  end
  d.execute := begin
    input (p);
    x <- f() + f();
    output (x);
  end
end`
	s, err := NewSession(isps.MustParse(miniOp), isps.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InlineCalls(InsSide); err != nil {
		t.Fatal(err)
	}
	text := isps.Format(s.Ins)
	if _, hasCall := isps.Find(s.Ins, func(n isps.Node) bool {
		_, ok := n.(*isps.Call)
		return ok
	}); hasCall {
		t.Errorf("calls remain:\n%s", text)
	}
	if s.Ins.Func("f") != nil {
		t.Error("unused function not removed")
	}
	// Both temporaries present, in evaluation order.
	if !strings.Contains(text, "t0 <- Mb[p];") || !strings.Contains(text, "t1 <- Mb[p];") {
		t.Errorf("temporaries wrong:\n%s", text)
	}
}

func TestMustApplyWrapsErrors(t *testing.T) {
	s := newMini(t)
	err := s.MustApply(InsSide, "fold.add", isps.Path{0, 0}, nil)
	if err == nil || !strings.Contains(err.Error(), "step 1") {
		t.Errorf("err = %v, want step-numbered wrap", err)
	}
}

func TestBindingDescribe(t *testing.T) {
	s := newMini(t)
	s.Machine, s.Instruction = "Mini", "ins"
	s.Language, s.Operation = "MiniLang", "add"
	if err := s.FixOperand(InsSide, "f", 0); err != nil {
		t.Fatal(err)
	}
	b, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	text := b.Describe()
	for _, want := range []string{"Mini ins implements MiniLang add", "a            -> r", "f = 0"} {
		if !strings.Contains(text, want) {
			t.Errorf("Describe missing %q:\n%s", want, text)
		}
	}
}

// TestGuardApplyWrapsNodeError: a transformation whose rewrite trips the
// AST's typed kind check (a wrong-kinded ReplaceAtDesc) surfaces from the
// session fault boundary as a *fault.PathError classifying as "path", not
// as a silent no-op or an unclassified error.
func TestGuardApplyWrapsNodeError(t *testing.T) {
	tr := &transform.Transformation{
		Name:     "test.bad.replace",
		Category: transform.Local,
		Effect:   transform.Preserving,
		Apply: func(d *isps.Description, at isps.Path, args transform.Args) (*transform.Outcome, error) {
			// Statement slot, expression node: kind mismatch.
			p, ok := isps.Find(d, func(n isps.Node) bool { _, is := n.(isps.Stmt); return is })
			if !ok {
				return nil, errors.New("no statement")
			}
			c, err := d.ReplaceAtDesc(p, &isps.Num{Val: 7})
			if err != nil {
				return nil, err
			}
			return &transform.Outcome{Desc: c, Note: "never reached"}, nil
		},
	}
	d := isps.InternDesc(isps.MustParse(miniIns))
	_, err := guardApply(tr, d, InsSide, tr.Name, nil, nil)
	var pe *fault.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *fault.PathError", err)
	}
	var ne *isps.NodeError
	if !errors.As(err, &ne) || !errors.Is(err, isps.ErrChildKind) {
		t.Errorf("err = %v, want wrapped NodeError with ErrChildKind", err)
	}
	if got := fault.Classify(err); got != "path" {
		t.Errorf("Classify = %q, want \"path\"", got)
	}
}
