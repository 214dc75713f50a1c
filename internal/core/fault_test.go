package core

import (
	"context"
	"errors"
	"testing"

	"extra/internal/constraint"
	"extra/internal/fault"
	"extra/internal/isps"
	"extra/internal/obs"
	"extra/internal/transform"
)

// TestApplyBadPathTyped: a nonsense cursor path must come back as a typed
// *fault.PathError carrying side/transform/path, the session state must be
// untouched, and the recovery must show up in the fault.recovered metric.
func TestApplyBadPathTyped(t *testing.T) {
	s := newPairSession(t, "blkcpy", "movc3")
	s.Metrics = obs.NewRegistry()
	before := isps.Format(s.Ins)

	err := s.Apply(InsSide, "if.reverse", isps.Path{9, 9, 9}, transform.Args{})
	var pe *fault.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T (%v), want *fault.PathError", err, err)
	}
	if pe.Xform != "if.reverse" || pe.Side != InsSide.String() {
		t.Errorf("PathError context = %+v", pe)
	}
	if got := isps.Format(s.Ins); got != before {
		t.Error("failed Apply mutated the session's instruction description")
	}
	if s.StepCount() != 0 {
		t.Errorf("failed Apply recorded %d steps", s.StepCount())
	}
	if n := s.Metrics.Counter("fault.recovered", "path"); n != 1 {
		t.Errorf("fault.recovered[path] = %d, want 1", n)
	}
}

// TestGuardApplyRecoversPanic: a panic inside a transformation's rewrite
// must surface as a PathError wrapping a PanicError, never escape.
func TestGuardApplyRecoversPanic(t *testing.T) {
	boom := &transform.Transformation{
		Name: "boom",
		Apply: func(d *isps.Description, at isps.Path, args transform.Args) (*transform.Outcome, error) {
			panic("kaboom")
		},
	}
	s := newPairSession(t, "blkcpy", "movc3")
	out, err := guardApply(boom, s.Ins, InsSide, "boom", nil, transform.Args{})
	if out != nil {
		t.Error("panicking transformation returned an outcome")
	}
	var pathErr *fault.PathError
	if !errors.As(err, &pathErr) {
		t.Fatalf("err = %T (%v), want *fault.PathError", err, err)
	}
	var panicErr *fault.PanicError
	if !errors.As(err, &panicErr) {
		t.Fatal("PathError does not wrap the recovered *fault.PanicError")
	}
	if panicErr.Value != "kaboom" {
		t.Errorf("panic value = %v", panicErr.Value)
	}
	if !fault.IsPanic(err) {
		t.Error("IsPanic = false for a recovered panic")
	}
}

// TestAutoCompleteBudgetTyped: search exhaustion is a typed
// *fault.BudgetError, not a bare string.
func TestAutoCompleteBudgetTyped(t *testing.T) {
	s := newPairSession(t, "pindex", "locc")
	_, err := s.AutoComplete(2, 2000)
	var be *fault.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T (%v), want *fault.BudgetError", err, err)
	}
	if be.Depth != 2 || be.Budget != 2000 {
		t.Errorf("BudgetError = %+v, want depth 2 / budget 2000", be)
	}
	if be.Reason == "" {
		t.Error("BudgetError has no reason")
	}
}

// TestAutoCompleteRetryLadder: the first rung is too small and must
// exhaust; the second is the known-good configuration and must succeed.
// Each rung's outcome is visible in the retry counters.
func TestAutoCompleteRetryLadder(t *testing.T) {
	s := newPairSession(t, "blkcpy", "movc3")
	s.Metrics = obs.NewRegistry()
	if err := s.Apply(InsSide, "augment.epilogue", nil, transform.Args{}); err != nil {
		t.Fatal(err)
	}
	ladder := []AutoRung{
		{MaxDepth: 1, Budget: 100},
		{MaxDepth: 4, Budget: 200000},
	}
	n, err := s.AutoCompleteRetry(nil, ladder)
	if err != nil {
		t.Fatalf("AutoCompleteRetry: %v", err)
	}
	if n == 0 {
		t.Error("retry ladder found no steps")
	}
	checks := []struct {
		metric, label string
		want          uint64
	}{
		{"auto.retry.attempt", "rung0", 1},
		{"auto.retry.exhausted", "rung0", 1},
		{"auto.retry.attempt", "rung1", 1},
		{"auto.retry.success", "rung1", 1},
	}
	for _, c := range checks {
		if got := s.Metrics.Counter(c.metric, c.label); got != c.want {
			t.Errorf("%s[%s] = %d, want %d", c.metric, c.label, got, c.want)
		}
	}
	if _, err := s.Finish(); err != nil {
		t.Fatalf("Finish after retry ladder: %v", err)
	}
}

// TestSessionContextCanceled: a canceled context fails Apply, AutoComplete
// and Finish up front without touching session state.
func TestSessionContextCanceled(t *testing.T) {
	s := newPairSession(t, "blkcpy", "movc3")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)

	if err := s.Apply(InsSide, "augment.epilogue", nil, transform.Args{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Apply under canceled ctx: %v", err)
	}
	if s.StepCount() != 0 {
		t.Error("canceled Apply recorded a step")
	}
	if _, err := s.AutoComplete(2, 100); !errors.Is(err, context.Canceled) {
		t.Errorf("AutoComplete under canceled ctx: %v", err)
	}
	if _, err := s.Finish(); !errors.Is(err, context.Canceled) {
		t.Errorf("Finish under canceled ctx: %v", err)
	}
}

// validTestBinding builds a binding that passes Validate; the corruption
// table below mutates one field at a time.
func validTestBinding() *Binding {
	return &Binding{
		Machine:     "Intel 8086",
		Instruction: "blt",
		Language:    "PC2",
		Operation:   "block copy",
		VarMap:      map[string]string{"n": "cnt", "a": "src", "b": "dst"},
		OpInputs:    []string{"n", "a", "b"},
		InsInputs:   []string{"cnt", "src", "dst"},
		Constraints: []constraint.Constraint{
			{Kind: constraint.Range, Operand: "cnt", Min: 0, Max: 0xffff},
		},
		Variant: isps.MustParse(`blt.instruction := begin
** S **
  cnt: integer, src: integer, dst: integer,
  blt.execute := begin
    input (cnt, src, dst);
  end
end`),
		Operator: isps.MustParse(`cpy.operation := begin
** S **
  n: integer, a: integer, b: integer,
  cpy.execute := begin
    input (n, a, b);
  end
end`),
	}
}

func TestBindingValidateCorruptFields(t *testing.T) {
	cases := []struct {
		name      string
		mutate    func(b *Binding)
		wantField string
	}{
		{"missing variant", func(b *Binding) { b.Variant = nil }, "variant_description"},
		{"missing operator", func(b *Binding) { b.Operator = nil }, "operator_description"},
		{"operand count mismatch", func(b *Binding) { b.InsInputs = b.InsInputs[:2] }, "operands"},
		{"duplicate operand", func(b *Binding) { b.OpInputs[1] = "n" }, "operands"},
		{"empty operand", func(b *Binding) { b.InsInputs[0] = "" }, "operands"},
		{"empty var_map entry", func(b *Binding) { b.VarMap["n"] = "" }, "var_map"},
		{"duplicate var_map target", func(b *Binding) { b.VarMap["a"] = "cnt" }, "var_map"},
		{"dangling operand", func(b *Binding) { delete(b.VarMap, "b") }, "var_map"},
		{"inconsistent operand binding", func(b *Binding) { b.VarMap["n"] = "other" }, "var_map"},
		{"constraint without operand", func(b *Binding) {
			b.Constraints = []constraint.Constraint{{Kind: constraint.Value}}
		}, "constraints"},
		{"predicate without predicate", func(b *Binding) {
			b.Constraints = []constraint.Constraint{{Kind: constraint.Predicate}}
		}, "constraints"},
		{"unknown constraint kind", func(b *Binding) {
			b.Constraints = []constraint.Constraint{{Kind: constraint.Kind(99), Operand: "cnt"}}
		}, "constraints"},
	}
	if err := validTestBinding().Validate(); err != nil {
		t.Fatalf("baseline binding does not validate: %v", err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := validTestBinding()
			c.mutate(b)
			err := b.Validate()
			var ce *fault.CorruptBindingError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %T (%v), want *fault.CorruptBindingError", err, err)
			}
			if ce.Field != c.wantField {
				t.Errorf("Field = %q, want %q (err: %v)", ce.Field, c.wantField, err)
			}
		})
	}
}
