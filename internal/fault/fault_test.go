package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestRecoverInto(t *testing.T) {
	f := func() (err error) {
		defer RecoverInto(&err, "test.op")
		panic("boom")
	}
	err := f()
	if err == nil {
		t.Fatal("panic not converted to error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PanicError", err)
	}
	if pe.Op != "test.op" || pe.Value != "boom" {
		t.Errorf("PanicError = %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if !IsPanic(err) {
		t.Error("IsPanic = false")
	}
}

func TestRecoverIntoKeepsExistingError(t *testing.T) {
	f := func() (err error) {
		defer RecoverInto(&err, "test.op")
		return errors.New("ordinary failure")
	}
	if err := f(); IsPanic(err) {
		t.Errorf("non-panicking return became a PanicError: %v", err)
	} else if err == nil || err.Error() != "ordinary failure" {
		t.Errorf("err = %v", err)
	}
}

func TestPathErrorWrapsPanic(t *testing.T) {
	inner := &PanicError{Op: "transform.x", Value: "index out of range"}
	err := error(&PathError{Side: "instruction", Xform: "x", Path: "/0/1", Err: inner})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatal("PathError does not unwrap to PanicError")
	}
	if !strings.Contains(err.Error(), "/0/1") || !strings.Contains(err.Error(), "instruction") {
		t.Errorf("message lacks context: %v", err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{context.DeadlineExceeded, "timeout"},
		{context.Canceled, "canceled"},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), "timeout"},
		{&PanicError{Op: "x"}, "panic"},
		{&PathError{Xform: "x", Err: errors.New("no")}, "path"},
		{&PathError{Xform: "x", Err: &PanicError{Op: "x"}}, "path"}, // path wins over wrapped panic
		{&BudgetError{Op: "auto"}, "budget"},
		{&CorruptBindingError{Binding: "b", Field: "f", Err: errors.New("bad")}, "corrupt-binding"},
		{&PoisonError{Key: "k", Last: &PanicError{Op: "x"}}, "poison"}, // poison wins over its wrapped fault
		{errors.New("misc"), "other"},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestBudgetErrorMessage(t *testing.T) {
	e := &BudgetError{Op: "auto-search", Depth: 2, Budget: 100, Explored: 100, Reason: "state budget spent"}
	if !strings.Contains(e.Error(), "budget") {
		t.Errorf("message must mention the budget: %v", e)
	}
	r := &BudgetError{Op: "auto-search", Depth: 2, Budget: 100, Explored: 100, Rung: 1, Rungs: 3, Reason: "x"}
	if !strings.Contains(r.Error(), "rung 2/3") {
		t.Errorf("ladder position missing: %v", r)
	}
}

func TestCorruptBindingErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	e := error(&CorruptBindingError{Binding: "scasb/index", Field: "var_map", Err: sentinel})
	if !errors.Is(e, sentinel) {
		t.Error("CorruptBindingError does not unwrap")
	}
	if !strings.Contains(e.Error(), "scasb/index") || !strings.Contains(e.Error(), "var_map") {
		t.Errorf("message lacks binding/field: %v", e)
	}
}
