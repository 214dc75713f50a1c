package core

import (
	"context"

	"extra/internal/isps"
	"extra/internal/obs"
)

// AutoSpec parameterizes an unscripted analysis: a candidate (operator,
// instruction) pair that has no proof script, attacked with nothing but the
// bounded auto-search. This is the discovery sweep's per-candidate entry
// point — the paper's interactive system required an analyst to choose the
// insight-bearing steps; a sweep instead asks, for every unproven pair,
// whether the argument-free preserving transformations alone close the gap
// to common form within a budget ladder.
type AutoSpec struct {
	// Machine, Instruction, Language, Operation label the resulting binding
	// (they are metadata, not search inputs).
	Machine, Instruction, Language, Operation string
	// Op and Ins are the operator and instruction descriptions to analyze.
	Op, Ins *isps.Description
	// Ladder is the escalating (depth, budget) retry ladder; see AutoLadder.
	Ladder []AutoRung
	// Workers is ignored: the auto-search runs serially on the caller's
	// goroutine. The field stays so existing callers build.
	Workers int
	// Tracer and Metrics receive the session's events and counters; nil
	// Tracer disables tracing, nil Metrics falls back to the process
	// default.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// AutoAnalyze runs a fully unscripted bounded analysis of spec's pair:
// session, retry ladder, common-form check. On success the returned binding
// is exactly what a scripted analysis would hand the code generator —
// variant descriptions, operand mapping, range constraints from register
// widths. A pair that needs insight-bearing steps (simplifications with
// arguments, augments, coding constraints) ends in the ladder's final
// *fault.BudgetError; a hostile description ends in whatever typed fault
// the engine's recovery boundaries produce. Deterministic for a fixed spec:
// the search consumes candidates in a fixed order, so a sweep can be
// killed, resumed, and re-verified byte-for-byte.
func AutoAnalyze(ctx context.Context, spec AutoSpec) (*Binding, error) {
	s, err := NewSession(spec.Op, spec.Ins)
	if err != nil {
		return nil, err
	}
	s.Machine = spec.Machine
	s.Instruction = spec.Instruction
	s.Language = spec.Language
	s.Operation = spec.Operation
	s.Tracer = spec.Tracer
	if spec.Metrics != nil {
		s.Metrics = spec.Metrics
	}
	s.SetContext(ctx)
	ladder := spec.Ladder
	if len(ladder) == 0 {
		ladder = AutoLadder(3, 1000, 2)
	}
	if _, err := s.AutoCompleteRetry(ctx, ladder); err != nil {
		return nil, err
	}
	return s.Finish()
}
