// Package fault is the typed error taxonomy of the EXTRA pipeline's
// fault-tolerance layer. The analysis engine (package core), the bounded
// auto-search, the binding loader and the code generators convert their
// failure modes — recovered panics out of AST navigation, exhausted search
// budgets, corrupt compiler-interface documents — into the errors defined
// here, so callers can classify with errors.As/errors.Is instead of string
// matching, and so a hostile description or a truncated binding file
// degrades one analysis instead of crashing the process.
//
// The package depends only on the standard library; every layer of the
// pipeline may import it.
package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is a panic recovered at a fault boundary, carrying the panic
// value and the stack at the point of recovery.
type PanicError struct {
	// Op names the guarded operation, e.g. "transform.if.reverse" or
	// "codegen.i8086".
	Op    string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("fault: recovered panic in %s: %v", e.Op, e.Value)
}

// RecoverInto is a defer helper: it converts an in-flight panic into a
// *PanicError stored in *errp. Any error already in *errp is replaced —
// the panic is the more urgent report.
//
//	func (t *target) Compile(...) (prog *Program, err error) {
//		defer fault.RecoverInto(&err, "codegen."+t.name)
//		...
func RecoverInto(errp *error, op string) {
	if r := recover(); r != nil {
		*errp = &PanicError{Op: op, Value: r, Stack: debug.Stack()}
	}
}

// IsPanic reports whether err wraps a recovered panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// PathError reports a transformation application addressed at a cursor
// path that does not (or no longer) address a usable node: an out-of-range
// child index, a path into a leaf, or a panic out of the AST navigation it
// triggered. The wrapped error is the resolution failure or the recovered
// *PanicError.
type PathError struct {
	// Side is the description the cursor addressed ("operator" or
	// "instruction").
	Side string
	// Xform is the transformation being applied.
	Xform string
	// Path is the offending cursor path, in isps.Path.String form.
	Path string
	Err  error
}

func (e *PathError) Error() string {
	return fmt.Sprintf("fault: %s at %s on the %s description: %v", e.Xform, e.Path, e.Side, e.Err)
}

func (e *PathError) Unwrap() error { return e.Err }

// BudgetError reports a bounded search that ran out of room: either the
// state budget was spent or the frontier emptied without reaching the goal.
// The retry ladder (core.Session.AutoCompleteRetry) escalates on exactly
// this error and re-returns the last rung's instance when every rung
// exhausts.
type BudgetError struct {
	// Op names the search, e.g. "auto-search".
	Op string
	// Depth and Budget are the bounds the search ran under.
	Depth, Budget int
	// Explored is the number of candidate states actually expanded.
	Explored int
	// Rung and Rungs locate the attempt on a retry ladder (0 and 1 for a
	// one-shot search).
	Rung, Rungs int
	// Reason distinguishes "budget spent" from "no completion within
	// depth".
	Reason string
}

func (e *BudgetError) Error() string {
	msg := fmt.Sprintf("fault: %s exhausted (depth %d, budget %d, %d states explored): %s",
		e.Op, e.Depth, e.Budget, e.Explored, e.Reason)
	if e.Rungs > 1 {
		msg += fmt.Sprintf(" [rung %d/%d]", e.Rung+1, e.Rungs)
	}
	return msg
}

// CorruptBindingError reports a binding (the compiler-interface document of
// core.Binding) that failed validation on load or before use: unparseable
// descriptions, dangling or duplicate var_map entries, mismatched operand
// lists, unknown constraint kinds. The code generator demotes the affected
// operator to its decomposition rules on this error instead of aborting.
type CorruptBindingError struct {
	// Binding labels the document, "instruction/operation".
	Binding string
	// Field is the offending document field, e.g. "var_map" or
	// "variant_description".
	Field string
	Err   error
}

func (e *CorruptBindingError) Error() string {
	return fmt.Sprintf("fault: corrupt binding %s: field %s: %v", e.Binding, e.Field, e.Err)
}

func (e *CorruptBindingError) Unwrap() error { return e.Err }

// PoisonError reports a work item quarantined by a sweep driver: its run
// ended in a fault (panic, timeout, a non-budget failure), so the item's
// row records the fault and the sweep goes on — one pathological candidate
// must not wedge or starve a multi-hour sweep. The engine is deterministic,
// so a fault recurs and the item is not re-run. Last is the run's fault;
// Classify(Unwrap()) names the underlying class.
type PoisonError struct {
	// Key identifies the quarantined item, e.g. "machine|instruction|...".
	Key string
	// Last is the fault that quarantined the item.
	Last error
}

func (e *PoisonError) Error() string {
	return fmt.Sprintf("fault: %s quarantined (last: %v)", e.Key, e.Last)
}

func (e *PoisonError) Unwrap() error { return e.Last }

// Classify maps an error to a small stable label set for metrics and trace
// attributes: "ok", "poison", "path", "panic", "budget", "corrupt-binding",
// "timeout", "canceled", or "other".
func Classify(err error) string {
	if err == nil {
		return "ok"
	}
	// Poison wraps the final fault of a quarantined item (often a panic or
	// a deadline), so it must be recognized before the classes it wraps.
	var poisonErr *PoisonError
	if errors.As(err, &poisonErr) {
		return "poison"
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	var (
		pathErr    *PathError
		panicErr   *PanicError
		budgetErr  *BudgetError
		bindingErr *CorruptBindingError
	)
	switch {
	case errors.As(err, &pathErr):
		return "path"
	case errors.As(err, &panicErr):
		return "panic"
	case errors.As(err, &budgetErr):
		return "budget"
	case errors.As(err, &bindingErr):
		return "corrupt-binding"
	}
	return "other"
}
