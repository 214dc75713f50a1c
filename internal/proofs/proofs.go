// Package proofs contains the analysis scripts for every instruction /
// operator pair in the paper's Table 2, the section 4.3 and section 5
// failure cases, and this reproduction's extension analyses. A script plays
// the role of the paper's human EXTRA user: it chooses which transformation
// to apply where, and the engine (package core) validates every choice.
package proofs

import (
	"context"
	"fmt"
	"math/rand"

	"extra/internal/core"
	"extra/internal/interp"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/transform"
)

// Analysis is one instruction/operator pair with its proof script.
type Analysis struct {
	Machine     string
	Instruction string
	Language    string
	Operation   string
	Operator    string // operator description name in langops
	// PaperSteps is the step count Table 2 reports (0 when the analysis is
	// not in the table).
	PaperSteps int
	// Extended marks analyses that need predicate constraints (beyond the
	// paper's EXTRA).
	Extended bool
	// Script applies the proof steps to the session.
	Script func(s *core.Session) error
	// Gen generates validation inputs for the final binding.
	Gen core.InputGen
}

// Run executes the analysis end to end and returns the finished session and
// binding. It is RunCtx without a bound; it stays because the benchmark
// module calls it.
func (a *Analysis) Run() (*core.Session, *core.Binding, error) {
	return a.RunCtx(context.Background())
}

// RunCtx is Run bounded by ctx. The context is installed on the session, so
// every scripted step, the finish check, and any auto search the script
// starts observe its deadline or cancellation and emit to its tracer, on
// which the analysis becomes one span (attrs: machine, instruction,
// language, operation) bounding per-step transform.apply events and the
// session.finish event. Step counts land in the process metrics registry as
// analysis.steps / analysis.elementary gauges either way — the paper's
// Table 2 columns.
func (a *Analysis) RunCtx(ctx context.Context) (_ *core.Session, _ *core.Binding, err error) {
	label := a.Instruction + "/" + a.Operator
	if tr := obs.TracerFrom(ctx); tr.Enabled() {
		sp := tr.StartSpan("analysis", map[string]any{
			"machine": a.Machine, "instruction": a.Instruction,
			"language": a.Language, "operation": a.Operation,
			"paper_steps": a.PaperSteps, "extended": a.Extended,
		})
		defer func() {
			attrs := map[string]any{"outcome": "ok"}
			if err != nil {
				attrs["outcome"] = "error"
				attrs["detail"] = err.Error()
			}
			sp.End(attrs)
		}()
	}
	op := langops.Get(a.Operator)
	ins := machines.Get(a.Instruction)
	if op == nil || ins == nil {
		return nil, nil, fmt.Errorf("proofs: unknown pair %s/%s", a.Instruction, a.Operator)
	}
	s, err := core.NewSession(op, ins)
	if err != nil {
		return nil, nil, err
	}
	s.Machine = a.Machine
	s.Instruction = a.Instruction
	s.Language = a.Language
	s.Operation = a.Operation
	s.Extended = a.Extended
	s.SetContext(ctx)
	if err = a.Script(s); err != nil {
		return s, nil, err
	}
	b, err := s.Finish()
	if err != nil {
		return s, nil, fmt.Errorf("proofs: %s/%s does not reach common form: %v\noperator:\n%s\ninstruction:\n%s",
			a.Instruction, a.Operator, err, isps.Format(s.Op), isps.Format(s.Ins))
	}
	obs.Default().Set("analysis.steps", label, int64(b.Steps))
	obs.Default().Set("analysis.elementary", label, int64(b.Elementary))
	return s, b, nil
}

// Table2 returns the paper's eleven analyses in table order.
func Table2() []*Analysis {
	return []*Analysis{
		MovsbPascal(),
		MovsbPL1(),
		ScasbRigel(),
		ScasbCLU(),
		CmpsbPascal(),
		Movc3PC2(),
		Movc5PC2(),
		LoccRigel(),
		LoccCLU(),
		Cmpc3Pascal(),
		MvcPascal(),
	}
}

// Extensions returns the analyses beyond the paper's EXTRA: the section 4.3
// failure resolved with predicate constraints, and the section 1 B4800 list
// search with its storage-layout constraint.
func Extensions() []*Analysis {
	return []*Analysis{
		Movc3PascalExtended(),
		B4800Lsearch(),
		StosbBlkclr(),
		ClcScompare(),
		LoccPL1(),
		TrXlate(),
	}
}

// ---------------------------------------------------------------------------
// Script helpers.

// loopAt returns the path of the first repeat loop in the description.
func loopAt(d *isps.Description) (isps.Path, error) {
	p, ok := isps.Find(d, func(n isps.Node) bool {
		_, isLoop := n.(*isps.RepeatStmt)
		return isLoop
	})
	if !ok {
		return nil, fmt.Errorf("proofs: no repeat loop found")
	}
	return p, nil
}

// stmtWhere returns the path of the first statement satisfying pred.
func stmtWhere(d *isps.Description, pred func(isps.Stmt) bool) (isps.Path, error) {
	p, ok := isps.Find(d, func(n isps.Node) bool {
		s, isStmt := n.(isps.Stmt)
		return isStmt && pred(s)
	})
	if !ok {
		return nil, fmt.Errorf("proofs: no statement matches")
	}
	return p, nil
}

// exprWhere returns the path of the first expression whose printed form is
// exactly text.
func exprWhere(d *isps.Description, text string) (isps.Path, error) {
	p, ok := isps.Find(d, func(n isps.Node) bool {
		e, isExpr := n.(isps.Expr)
		return isExpr && isps.ExprString(e) == text
	})
	if !ok {
		return nil, fmt.Errorf("proofs: no expression %q found", text)
	}
	return p, nil
}

// apply is a terse step application for scripts.
func apply(s *core.Session, side core.Side, name string, at isps.Path, kv ...string) error {
	args := transform.Args{}
	for i := 0; i+1 < len(kv); i += 2 {
		args[kv[i]] = kv[i+1]
	}
	return s.MustApply(side, name, at, args)
}

// applyAtExpr locates an expression by its printed form and applies the
// transformation there.
func applyAtExpr(s *core.Session, side core.Side, name, exprText string, kv ...string) error {
	return applyAtExprN(s, side, name, exprText, 0, kv...)
}

// applyAtExprN is applyAtExpr for the n-th (0-based, pre-order) occurrence
// of the printed form.
func applyAtExprN(s *core.Session, side core.Side, name, exprText string, n int, kv ...string) error {
	paths := isps.FindAll(s.Desc(side), func(nd isps.Node) bool {
		e, isExpr := nd.(isps.Expr)
		return isExpr && isps.ExprString(e) == exprText
	})
	if n >= len(paths) {
		return fmt.Errorf("proofs: %s: only %d occurrences of %q, want #%d", name, len(paths), exprText, n)
	}
	return apply(s, side, name, paths[n], kv...)
}

// applyAtStmt locates a statement by its printed form prefix and applies
// the transformation there.
func applyAtStmt(s *core.Session, side core.Side, name, stmtPrefix string, kv ...string) error {
	at, err := stmtWhere(s.Desc(side), func(st isps.Stmt) bool {
		txt := isps.StmtString(st)
		return len(txt) >= len(stmtPrefix) && txt[:len(stmtPrefix)] == stmtPrefix
	})
	if err != nil {
		return fmt.Errorf("proofs: %s: no statement starting %q", name, stmtPrefix)
	}
	return apply(s, side, name, at, kv...)
}

// applyAtLoop applies the transformation at the first repeat loop.
func applyAtLoop(s *core.Session, side core.Side, name string, kv ...string) error {
	at, err := loopAt(s.Desc(side))
	if err != nil {
		return err
	}
	return apply(s, side, name, at, kv...)
}

// sinkToLoopBottom moves the top-level loop statement at body index `from`
// down to the bottom of the loop body with move.swap steps, finishing with
// move.across.exit when the last crossing is an exit.
func sinkToLoopBottom(s *core.Session, side core.Side, from int) error {
	for {
		lp, err := loopAt(s.Desc(side))
		if err != nil {
			return err
		}
		n, err := isps.Resolve(s.Desc(side), lp)
		if err != nil {
			return err
		}
		body := n.(*isps.RepeatStmt).Body
		if from >= len(body.Stmts)-1 {
			return nil
		}
		at := append(append(isps.Path{}, lp...), 0, from)
		next := body.Stmts[from+1]
		xf := "move.swap"
		if _, isExit := next.(*isps.ExitWhenStmt); isExit {
			xf = "move.across.exit"
		}
		if err := apply(s, side, xf, at, "dir", "down"); err != nil {
			return err
		}
		from++
	}
}

// compareImage stores a string of n bytes drawn at a and its copy at b;
// half the time (when n > 0) one byte of the copy differs.
func compareImage(rng *rand.Rand, mem *interp.Image, a, b uint64, n int) {
	drawString(rng, mem, a, n)
	for i := uint64(0); i < uint64(n); i++ {
		mem.Store(b+i, mem.Load(a+i))
	}
	if n > 0 && rng.Intn(2) == 0 {
		k := b + uint64(rng.Intn(n))
		mem.Store(k, mem.Load(k)^1)
	}
}

// drawString draws n bytes over a small alphabet into mem at addr, so
// searches and compares exercise both hit and miss paths.
func drawString(rng *rand.Rand, mem *interp.Image, addr uint64, n int) {
	for i := 0; i < n; i++ {
		mem.Store(addr+uint64(i), byte('a'+rng.Intn(3)))
	}
}
