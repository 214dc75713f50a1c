// Package core is the EXTRA analysis engine. A Session holds a language
// operator description and an exotic instruction description; proof scripts
// apply transformations from the library one step at a time (the paper's
// user positioned a cursor and chose transformations; here the script plays
// that role and the engine still validates every precondition). When the
// two descriptions reach common form, Finish produces the Binding — the
// (instruction, operator, constraints, augments) record a retargetable code
// generator consumes (paper sections 3 and 6).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"extra/internal/constraint"
	"extra/internal/equiv"
	"extra/internal/fault"
	"extra/internal/isps"
	"extra/internal/obs"
	"extra/internal/transform"
)

// Side selects which description a step transforms.
type Side int

// Sides of an analysis.
const (
	OpSide Side = iota
	InsSide
)

func (s Side) String() string {
	if s == OpSide {
		return "operator"
	}
	return "instruction"
}

// Step records one transformation application.
type Step struct {
	Index       int
	Side        Side
	Xform       string
	At          isps.Path
	Args        transform.Args
	Note        string
	Constraints []constraint.Constraint
}

// ErrComplexConstraint is returned in classic mode when a transformation
// introduces a multi-operand predicate constraint, reproducing the paper's
// section 4.3 failure ("the current version of EXTRA has no ability to deal
// with complicated constraints that involve more than one operand").
var ErrComplexConstraint = errors.New(
	"core: complicated constraints involving more than one operand are not representable (paper section 4.3); enable extended mode to accept predicate constraints")

// Session is one analysis in progress.
type Session struct {
	Machine     string
	Instruction string
	Language    string
	Operation   string

	// Op and Ins are the current (transformed) descriptions.
	Op, Ins *isps.Description
	// OrigOp and OrigIns are the untouched inputs.
	OrigOp, OrigIns *isps.Description
	// Variant is the instruction description after its last simplifying or
	// augmenting step: the customized instruction the code generator will
	// emit. Verification-only transformations do not move it.
	Variant *isps.Description
	// OpVariant is the operator description after its last
	// signature-changing step (operand reordering or an operand fixed by a
	// source-level constraint); it is what validation executes against the
	// instruction variant.
	OpVariant *isps.Description

	// Extended enables predicate constraints (the reproduction's
	// future-work mode); classic EXTRA rejects them.
	Extended bool

	// AutoWorkers is ignored: the auto-search runs serially on the
	// caller's goroutine. The field stays so existing callers build.
	AutoWorkers int

	// Metrics receives step counters and latency histograms; NewSession
	// defaults it to the process registry (obs.Default()).
	Metrics *obs.Registry

	Steps []Step
	// Elementary counts the paper-granularity rewrites: each step
	// contributes its transformation's elementary edit count (at least 1).
	Elementary  int
	Constraints []constraint.Constraint
	Prologue    []isps.Stmt
	Epilogue    []isps.Stmt
	// RemovedOutputs are the instruction's original result expressions
	// replaced by the epilogue augment.
	RemovedOutputs []isps.Expr

	snapshots map[string]*isps.Description

	// ctx carries the session's cancellation signal; nil means no bound.
	// Apply, AutoComplete, and Finish observe it. tr is ctx's tracer, read
	// once: it receives an event for every step (application outcome,
	// cursor path, duration) and for Finish. A nil or disabled tracer adds
	// no allocations on the apply path.
	ctx context.Context
	tr  *obs.Tracer
}

// SetContext bounds the session by ctx: subsequent Apply, AutoComplete and
// Finish calls fail fast (with ctx.Err wrapped) once ctx is cancelled or
// past its deadline. The context's tracer receives the session's events.
func (s *Session) SetContext(ctx context.Context) { s.ctx, s.tr = ctx, obs.TracerFrom(ctx) }

// Context returns the session's context (context.Background when unset).
func (s *Session) Context() context.Context {
	if s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// ctxErr reports the session's cancellation state, wrapped with the
// interrupted operation's name.
func (s *Session) ctxErr(op string) error {
	if s.ctx == nil {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("core: %s: %w", op, err)
	}
	return nil
}

// NewSession starts an analysis of instruction ins against operator op.
// Both descriptions are interned: the session's working trees are immutable
// and hash-consed, every Apply commits a freshly interned tree, and the six
// description fields alias canonical nodes instead of each holding a deep
// clone (six full-tree clones per session before hash-consing).
//
// The session takes ownership of op and ins: they are interned in place
// (isps.Intern), so each must be frozen already (a corpus entry) or the
// caller's own tree, such as a fresh parse, that no other goroutine reads
// and the caller does not change afterwards.
func NewSession(op, ins *isps.Description) (*Session, error) {
	for _, d := range []*isps.Description{op, ins} {
		if err := isps.Validate(d); err != nil {
			return nil, err
		}
	}
	cop, cins := isps.InternDesc(op), isps.InternDesc(ins)
	return &Session{
		Op:        cop,
		Ins:       cins,
		OrigOp:    cop,
		OrigIns:   cins,
		Variant:   cins,
		OpVariant: cop,
		Metrics:   obs.Default(),
		snapshots: map[string]*isps.Description{},
	}, nil
}

// Step outcomes recorded by the observability layer.
const (
	outcomeApplied = "applied"
	outcomePrecond = "precondition-failed"
	outcomeError   = "error"
)

// noteApply records one application attempt's metrics and trace event.
// detail is the precondition message or error text on failures, the
// outcome note on success.
func (s *Session) noteApply(side Side, name string, at isps.Path, dur time.Duration, outcome, detail string) {
	switch outcome {
	case outcomeApplied:
		s.Metrics.Inc("transform.applied", name)
	case outcomePrecond:
		s.Metrics.Inc("transform.precond", name)
		s.Metrics.Inc("transform.precond.reason", truncate(name+": "+detail, 120))
	default:
		s.Metrics.Inc("transform.error", name)
	}
	s.Metrics.Observe("transform.apply.ns", name, uint64(dur))
	if s.tr.Enabled() {
		attrs := map[string]any{
			"side":    side.String(),
			"xform":   name,
			"at":      at.String(),
			"dur_ns":  dur.Nanoseconds(),
			"outcome": outcome,
		}
		if detail != "" {
			attrs["detail"] = detail
		}
		s.tr.Event("transform.apply", attrs)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Desc returns the current description of the given side.
func (s *Session) Desc(side Side) *isps.Description {
	if side == OpSide {
		return s.Op
	}
	return s.Ins
}

// safeTransformApply applies tr inside a recovery boundary: a panic out of
// AST navigation (an out-of-range Node.Child, a failed type assertion deep
// in a rewrite) surfaces as a *fault.PanicError instead of crashing the
// process. Transformations never write to their input, which is interned,
// so a failed application leaves nothing behind.
func safeTransformApply(tr *transform.Transformation, d *isps.Description, at isps.Path, args transform.Args) (out *transform.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = &fault.PanicError{Op: "transform." + tr.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	return tr.Apply(d, at, args)
}

// guardApply is the session's fault boundary around one application: the
// cursor path is resolved up front (a malformed path yields a typed
// *fault.PathError, errors.As-able, carrying side, transformation and
// path) and any panic out of the application is converted likewise. A
// typed *isps.NodeError out of the rewrite (a wrong-kinded replacement in
// ReplaceAt or Rewrite) is wrapped the same way, so kind mismatches
// classify as path faults without relying on the panic net. The session
// state is untouched on failure because Apply commits only after a
// successful return.
func guardApply(tr *transform.Transformation, d *isps.Description, side Side, name string, at isps.Path, args transform.Args) (*transform.Outcome, error) {
	if _, rerr := isps.Resolve(d, at); rerr != nil {
		return nil, &fault.PathError{Side: side.String(), Xform: name, Path: at.String(), Err: rerr}
	}
	out, err := safeTransformApply(tr, d, at, args)
	var ne *isps.NodeError
	if err != nil && (fault.IsPanic(err) || errors.As(err, &ne)) {
		return nil, &fault.PathError{Side: side.String(), Xform: name, Path: at.String(), Err: err}
	}
	return out, err
}

// Apply performs one transformation step. The transformation's
// preconditions are checked by the library; the session additionally
// enforces the constraint policy (classic vs extended) and that augments
// only ever apply to the instruction. Failures of any class — a malformed
// cursor path, a panic recovered from the rewrite, a failed precondition —
// leave the session state exactly as it was.
func (s *Session) Apply(side Side, name string, at isps.Path, args transform.Args) error {
	if err := s.ctxErr("apply " + name); err != nil {
		s.noteApply(side, name, at, 0, outcomeError, err.Error())
		return err
	}
	tr, err := transform.Get(name)
	if err != nil {
		s.noteApply(side, name, at, 0, outcomeError, err.Error())
		return err
	}
	if tr.Effect == transform.Augmenting && side == OpSide {
		err := fmt.Errorf("core: augments produce instruction variants; they cannot apply to the %s description", side)
		s.noteApply(side, name, at, 0, outcomeError, err.Error())
		return err
	}
	start := time.Now()
	out, err := guardApply(tr, s.Desc(side), side, name, at, args)
	dur := time.Since(start)
	if err != nil {
		if pe, ok := transform.AsPrecond(err); ok {
			s.noteApply(side, name, at, dur, outcomePrecond, pe.Msg())
		} else {
			if cls := fault.Classify(err); cls != "other" {
				s.Metrics.Inc("fault.recovered", cls)
			}
			s.noteApply(side, name, at, dur, outcomeError, err.Error())
		}
		return err
	}
	return s.commit(side, tr, at, args, out, dur)
}

// commit records out, the outcome of applying tr to the current description
// of side at path at, as the session's next step: the constraint policy and
// the static checks, the metrics and trace event, interning, the variant
// fields and the step record. Apply commits what it applied, and Normalize
// what it probed, so each step applies its transformation once. The session
// owns out: its tree is interned in place.
func (s *Session) commit(side Side, tr *transform.Transformation, at isps.Path, args transform.Args, out *transform.Outcome, dur time.Duration) error {
	name := tr.Name
	for _, c := range out.Constraints {
		if c.Kind == constraint.Predicate && !s.Extended {
			err := fmt.Errorf("%w (from %s: %s)", ErrComplexConstraint, name, c.Pred)
			s.noteApply(side, name, at, dur, outcomeError, err.Error())
			return err
		}
	}
	if err := isps.Validate(out.Desc); err != nil {
		err = fmt.Errorf("core: %s produced an invalid description: %v", name, err)
		s.noteApply(side, name, at, dur, outcomeError, err.Error())
		return err
	}
	s.noteApply(side, name, at, dur, outcomeApplied, out.Note)
	// Every transform hands back spine rebuilds over the (already interned)
	// previous state, so interning re-freezes only the rebuilt spines, in
	// place. Variant fields alias the canonical tree.
	nd := isps.InternDesc(out.Desc)
	if side == OpSide {
		s.Op = nd
		if tr.Effect != transform.Preserving {
			s.OpVariant = nd
		}
	} else {
		s.Ins = nd
		if tr.Effect != transform.Preserving {
			s.Variant = nd
		}
	}
	edits := out.Rewrites
	if edits < 1 {
		edits = 1
	}
	s.Elementary += edits
	s.Constraints = append(s.Constraints, out.Constraints...)
	s.Prologue = append(s.Prologue, out.Prologue...)
	s.Epilogue = append(s.Epilogue, out.Epilogue...)
	if len(out.RemovedOutputs) > 0 {
		s.RemovedOutputs = out.RemovedOutputs
	}
	s.Steps = append(s.Steps, Step{
		Index:       len(s.Steps) + 1,
		Side:        side,
		Xform:       name,
		At:          append(isps.Path(nil), at...),
		Args:        args,
		Note:        out.Note,
		Constraints: out.Constraints,
	})
	return nil
}

// MustApply is Apply for proof scripts that have already been verified to
// hold; it converts an unexpected precondition failure into the error
// return of the enclosing analysis.
func (s *Session) MustApply(side Side, name string, at isps.Path, args transform.Args) error {
	if err := s.Apply(side, name, at, args); err != nil {
		return fmt.Errorf("core: step %d (%s on %s at %s): %w", len(s.Steps)+1, name, side, at, err)
	}
	return nil
}

// StepCount reports the number of transformation steps applied so far — the
// quantity the paper's Table 2 records per analysis.
func (s *Session) StepCount() int { return len(s.Steps) }

// Snapshot stores the given side's current description under a label; the
// paper's figures 4 and 5 are such intermediate stages. Interning (a
// pointer copy when the session state is already canonical) replaces the
// old defensive clone: an interned snapshot cannot be mutated out from
// under the label.
func (s *Session) Snapshot(label string, side Side) {
	s.snapshots[label] = isps.InternDesc(s.Desc(side))
}

// Snapshots returns the labeled intermediate descriptions. The returned
// trees are interned (immutable), so they are shared rather than cloned.
func (s *Session) Snapshots() map[string]*isps.Description {
	out := map[string]*isps.Description{}
	for k, v := range s.snapshots {
		out[k] = v
	}
	return out
}

// Binding is the analysis result handed to the retargetable code generator:
// which instruction implements which operator, under which constraints,
// with which prologue/epilogue augments (phrased over the instruction's
// registers).
type Binding struct {
	Machine     string
	Instruction string
	Language    string
	Operation   string

	// VarMap maps operator variables to instruction registers.
	VarMap map[string]string
	// OpInputs and InsInputs are the positional operand lists of the
	// matched descriptions (equal length; InsInputs[i] implements
	// OpInputs[i]).
	OpInputs  []string
	InsInputs []string

	Constraints []constraint.Constraint
	Prologue    []isps.Stmt
	Epilogue    []isps.Stmt
	// RemovedOutputs are the instruction's original result expressions the
	// epilogue augment replaced (empty when the outputs were kept).
	RemovedOutputs []isps.Expr
	Steps          int
	// Elementary is the paper-granularity rewrite count (see
	// Session.Elementary); Table 2's numbers are nearer this accounting.
	Elementary int

	// Variant is the simplified/augmented instruction description proven
	// equivalent to the operator.
	Variant *isps.Description
	// Operator is the operator description with any operand reordering and
	// source-level operand constraints applied (otherwise the original).
	Operator *isps.Description
}

// Finish verifies the two descriptions are in common form and assembles the
// binding. The width-induced range constraints from the match are added to
// the constraints accumulated by the steps. Finish runs inside a recovery
// boundary: a panic out of the matcher degrades to a typed error.
func (s *Session) Finish() (_ *Binding, err error) {
	defer fault.RecoverInto(&err, "session.finish")
	if cerr := s.ctxErr("finish"); cerr != nil {
		return nil, cerr
	}
	start := time.Now()
	m, err := equiv.CommonForm(s.Op, s.Ins)
	s.Metrics.ObserveSince("session.finish.ns", s.Instruction+"/"+s.Operation, start)
	if err != nil {
		s.Metrics.Inc("session.finish", "mismatch")
		if s.tr.Enabled() {
			s.tr.Event("session.finish", map[string]any{
				"instruction": s.Instruction, "operation": s.Operation,
				"outcome": "mismatch", "detail": err.Error(), "steps": len(s.Steps),
			})
		}
		return nil, err
	}
	s.Metrics.Inc("session.finish", "ok")
	if s.tr.Enabled() {
		s.tr.Event("session.finish", map[string]any{
			"instruction": s.Instruction, "operation": s.Operation,
			"outcome": "ok", "mapping_size": len(m.VarMap), "steps": len(s.Steps),
			"elementary": s.Elementary,
		})
	}
	b := &Binding{
		Machine:     s.Machine,
		Instruction: s.Instruction,
		Language:    s.Language,
		Operation:   s.Operation,
		VarMap:      m.VarMap,
		OpInputs:    s.Op.Inputs(),
		InsInputs:   s.Ins.Inputs(),
		Constraints: append(append([]constraint.Constraint{}, s.Constraints...), m.Constraints...),
		// The statements are shared, and nothing writes to them; the
		// slices are copied so the session's later appends cannot reach
		// the binding.
		Prologue:       append([]isps.Stmt(nil), s.Prologue...),
		Epilogue:       append([]isps.Stmt(nil), s.Epilogue...),
		RemovedOutputs: append([]isps.Expr(nil), s.RemovedOutputs...),
		Steps:          s.StepCount(),
		Elementary:     s.Elementary,
		Variant:        isps.InternDesc(s.Variant),
		Operator:       isps.InternDesc(s.OpVariant),
	}
	if len(b.OpInputs) != len(b.InsInputs) {
		return nil, fmt.Errorf("core: matched descriptions have different operand counts (%d vs %d)",
			len(b.OpInputs), len(b.InsInputs))
	}
	return b, nil
}

// Describe renders the binding for humans: the paper's summary of an
// analysis result.
func (b *Binding) Describe() string {
	out := fmt.Sprintf("%s %s implements %s %s (%d transformation steps, %d elementary rewrites)\n",
		b.Machine, b.Instruction, b.Language, b.Operation, b.Steps, b.Elementary)
	out += "operand binding:\n"
	for i, op := range b.OpInputs {
		out += fmt.Sprintf("  %-12s -> %s\n", op, b.InsInputs[i])
	}
	if len(b.Constraints) > 0 {
		out += "constraints:\n"
		for _, c := range b.Constraints {
			out += "  " + c.String() + "\n"
		}
	}
	if len(b.Prologue) > 0 {
		out += "prologue augment:\n"
		for _, s := range b.Prologue {
			out += "  " + isps.StmtString(s) + "\n"
		}
	}
	if len(b.Epilogue) > 0 {
		out += "epilogue augment:\n"
		for _, s := range b.Epilogue {
			out += "  " + isps.StmtString(s) + "\n"
		}
	}
	return out
}
