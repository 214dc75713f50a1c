package core

import (
	"fmt"
	"strconv"

	"extra/internal/dataflow"
	"extra/internal/isps"
	"extra/internal/transform"
)

// Tactics expand into sequences of elementary transformation steps, each
// recorded and validated individually. The paper notes that "the
// simplifications mentioned earlier can require many steps" and that "many
// of the transformations are at too low a level" — tactics are this
// reproduction's answer to the resulting tedium, while keeping the step
// accounting faithful: a tactic is bookkeeping, the steps are real.

// reducingTransforms are the local transformations tried during
// normalization. Every one of them strictly shrinks the description, so the
// fixpoint iteration terminates.
var reducingTransforms = []string{
	"fold.add", "fold.sub", "fold.mul", "fold.div", "fold.compare",
	"fold.not", "fold.logic",
	"simplify.and.true", "simplify.and.false", "simplify.or.false",
	"simplify.or.true", "simplify.xor.false", "simplify.not.not",
	"simplify.add.zero", "simplify.sub.zero", "simplify.mul.one",
	"simplify.mul.zero", "simplify.div.one",
	"if.true", "if.false", "exit.false",
}

// Normalize repeatedly applies the reducing local transformations anywhere
// in the description until none applies, recording every application as a
// step. It returns the number of steps taken. Each round walks the
// description once for its sites and tries the moves of each site's kind
// in reducingTransforms order, through the same probe as the auto-search:
// a move whose Gate rejects the node is skipped, and a failed or panicking
// probe is counted (transform.precond or transform.error, recorded once
// when Normalize returns) and skipped. A successful probe is committed as
// it is, without applying the transformation a second time.
func (s *Session) Normalize(side Side) (int, error) {
	pr := newProber(normalizeMoves, true)
	defer pr.flush(s.Metrics)
	steps := 0
	for {
		applied := false
		// Collect the sites fresh each round: the tree changes.
		d := s.Desc(side)
		for _, c := range pr.walk(d) {
			n, err := isps.Resolve(d, c.p)
			if err != nil {
				continue // a prior application this round restructured the tree
			}
			// A site keeps the kind it was walked with; each move gates on
			// the freshly resolved node, since an application this round
			// may have rewritten what sits at the path.
			for _, i := range pr.t.byKind[c.kind] {
				out, dur := pr.probe(i, d, n, c.p)
				if out == nil {
					continue
				}
				tr := pr.t.moves[i]
				if err := s.ctxErr("apply " + tr.Name); err != nil {
					s.noteApply(side, tr.Name, c.p, 0, outcomeError, err.Error())
					return steps, err
				}
				if err := s.commit(side, tr, c.p, nil, out, dur); err != nil {
					return steps, err
				}
				steps++
				applied = true
				d = s.Desc(side)
				// The application rewrote the node at the path; later moves
				// must gate on what is there now. A vanished path ends this
				// site: every transform resolves it and would refuse.
				if n, err = isps.Resolve(d, c.p); err != nil {
					break
				}
			}
		}
		if !applied {
			return steps, nil
		}
	}
}

// FixOperand fixes an instruction operand to a constant and cleans up: the
// constant is propagated to every use, the now-dead initializing assignment
// and (when possible) the declaration are removed, and the description is
// re-normalized. This is the paper's flag-simplification sequence for rf,
// rfz and df (section 4.1).
func (s *Session) FixOperand(side Side, operand string, value int) error {
	if err := s.MustApply(side, "constraint.fix", nil, transform.Args{
		"operand": operand, "value": strconv.Itoa(value),
	}); err != nil {
		return err
	}
	return s.propagateAndClean(side, operand)
}

// propagateAndClean propagates a single top-level constant definition of
// operand, removes the dead assignment and declaration, and normalizes.
func (s *Session) propagateAndClean(side Side, operand string) error {
	if err := s.MustApply(side, "global.const.prop", nil, transform.Args{"var": operand}); err != nil {
		return err
	}
	// The defining assignment is now dead: find it (top level).
	d := s.Desc(side)
	at, ok := findTopLevelAssign(d, operand)
	if !ok {
		return fmt.Errorf("core: lost the defining assignment of %s", operand)
	}
	if err := s.MustApply(side, "global.dead.assign", at, nil); err != nil {
		return err
	}
	if _, err := s.Normalize(side); err != nil {
		return err
	}
	// The declaration may now be unused.
	if s.Desc(side).Reg(operand) != nil {
		// A declaration still used somewhere refuses; it then stays.
		_ = s.Apply(side, "global.dead.decl", nil, transform.Args{"var": operand})
	}
	return nil
}

// findTopLevelAssign locates the first top-level assignment to v in the
// routine body and returns its absolute path.
func findTopLevelAssign(d *isps.Description, v string) (isps.Path, bool) {
	for si, sec := range d.Sections {
		for di, dec := range sec.Decls {
			r, ok := dec.(*isps.RoutineDecl)
			if !ok {
				continue
			}
			for i, st := range r.Body.Stmts {
				if a, ok := st.(*isps.AssignStmt); ok {
					if id, ok := a.LHS.(*isps.Ident); ok && id.Name == v {
						return isps.Path{si, di, 0, i}, true
					}
				}
			}
		}
	}
	return nil, false
}

// InlineCalls inlines every function call in the description (innermost
// statements first, leftmost call first) and removes the then-unused
// functions.
func (s *Session) InlineCalls(side Side) error {
	for n := 0; ; n++ {
		if n > 100 {
			return fmt.Errorf("core: runaway inlining")
		}
		d := s.Desc(side)
		// Find the first statement (not compound) containing a call.
		at, ok := findCallStmt(d)
		if !ok {
			break
		}
		temp := ""
		for k := 0; ; k++ {
			if cand := "t" + strconv.Itoa(k); isps.NameFree(d, cand) {
				temp = cand
				break
			}
		}
		if err := s.MustApply(side, "routine.inline", at, transform.Args{"temp": temp}); err != nil {
			return err
		}
	}
	// Remove functions that are no longer called.
	for {
		d := s.Desc(side)
		removed := false
		for _, f := range d.Funcs() {
			if err := s.Apply(side, "routine.remove", nil, transform.Args{"func": f.Name}); err == nil {
				removed = true
				break
			}
		}
		if !removed {
			break
		}
	}
	return nil
}

// findCallStmt returns the path of the innermost simple statement (or if
// condition) containing a call.
func findCallStmt(d *isps.Description) (isps.Path, bool) {
	var found isps.Path
	ok := false
	isps.Walk(d, func(n isps.Node, p isps.Path) bool {
		if ok {
			return false
		}
		switch st := n.(type) {
		case *isps.AssignStmt, *isps.ExitWhenStmt, *isps.OutputStmt, *isps.AssertStmt:
			if dataflow.HasCalls(n) {
				found = append(isps.Path(nil), p...)
				ok = true
				return false
			}
		case *isps.IfStmt:
			if dataflow.HasCalls(st.Cond) {
				found = append(isps.Path(nil), p...)
				ok = true
				return false
			}
		case *isps.FuncDecl:
			return false // calls cannot nest; skip function bodies
		}
		return true
	})
	return found, ok
}
