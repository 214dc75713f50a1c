package core_test

import (
	"fmt"
	"strings"
	"testing"

	"extra/internal/core"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/proofs"
	"extra/internal/transform"
)

// replayCatalog replays every catalog analysis's recorded steps through
// Session.Apply on a fresh session, calling each with the session, the
// step and the description the step transformed, as it was before the
// step.
func replayCatalog(t *testing.T, each func(s *core.Session, st core.Step, prev *isps.Description)) {
	t.Helper()
	for _, a := range append(proofs.Table2(), proofs.Extensions()...) {
		done, _, err := a.Run()
		if err != nil {
			t.Fatalf("%s/%s: %v", a.Instruction, a.Operator, err)
		}
		s, err := core.NewSession(langops.Get(a.Operator), machines.Get(a.Instruction))
		if err != nil {
			t.Fatal(err)
		}
		s.Extended = a.Extended
		for _, st := range done.Steps {
			prev := s.Desc(st.Side)
			if err := s.Apply(st.Side, st.Xform, st.At, st.Args); err != nil {
				t.Fatalf("%s/%s: replaying step %d: %v", a.Instruction, a.Operator, st.Index, err)
			}
			each(s, st, prev)
		}
	}
}

// catalogStates returns every description a replayed catalog analysis
// passes through: each side a step transformed, before and after the
// step, each distinct description once (commits are interned, so equal
// descriptions are the same node).
func catalogStates(t *testing.T) []*isps.Description {
	t.Helper()
	var states []*isps.Description
	seen := map[*isps.Description]bool{}
	replayCatalog(t, func(s *core.Session, st core.Step, prev *isps.Description) {
		for _, d := range []*isps.Description{prev, s.Desc(st.Side)} {
			if !seen[d] {
				seen[d] = true
				states = append(states, d)
			}
		}
	})
	return states
}

// checkGates applies every gated transformation at every node of states
// that keep selects, reports each node where the transformation applies
// but its Gate rejects the node, and returns the number of applications
// per transformation. Normalize and the search skip a site whose gate
// fails, so an unsound gate would silently drop a candidate from them.
func checkGates(t *testing.T, states []*isps.Description, keep func(isps.Node) bool) map[string]int {
	t.Helper()
	var gated []*transform.Transformation
	for _, tr := range transform.All() {
		if tr.Gate != nil {
			gated = append(gated, tr)
		}
	}
	applied := map[string]int{}
	for _, d := range states {
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			if !keep(n) {
				return true
			}
			for _, tr := range gated {
				if _, err := tr.Apply(d, p, nil); err != nil {
					continue
				}
				applied[tr.Name]++
				if !tr.Gate(n) {
					t.Errorf("%s applies at %s of %s but its gate rejects the node", tr.Name, p, d.Name)
				}
			}
			return true
		})
	}
	return applied
}

// TestExprGatesSound: the expression rewrites' gates pass every expression
// their rewrite applies at, over every state the catalog analyses pass
// through. (The converse is not required: a gate may pass where the
// rewrite still refuses on a semantic condition.) transform's
// TestGatesSound checks the gates over the corpus and the unit tables.
func TestExprGatesSound(t *testing.T) {
	applied := checkGates(t, catalogStates(t), func(n isps.Node) bool {
		_, ok := n.(isps.Expr)
		return ok
	})
	if len(applied) == 0 {
		t.Fatal("no gated rewrite applies to a catalog state; the replay or the walk is broken")
	}
}

// TestStmtGatesSound: the statement gates (the constant folds of
// conditionals and exits) pass every statement their fold applies at,
// over every state the catalog analyses pass through.
func TestStmtGatesSound(t *testing.T) {
	applied := checkGates(t, catalogStates(t), func(n isps.Node) bool {
		_, ok := n.(isps.Stmt)
		return ok
	})
	if len(applied) == 0 {
		t.Fatal("no constant fold applies to a catalog state; the replay or the walk is broken")
	}
}

// TestCommitInternsInPlace: every committed description is frozen all the
// way down and is the node Intern returns for a copy of it, and the step
// left the description it transformed exactly as it was. Apply commits
// each replayed catalog step; Normalize (inside each analysis's script)
// commits the probes it applied, checked on the finished sessions.
func TestCommitInternsInPlace(t *testing.T) {
	check := func(what string, d *isps.Description) {
		t.Helper()
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			if !isps.Interned(n) {
				t.Fatalf("%s: %T at %s is not frozen", what, n, p)
			}
			return true
		})
		if isps.InternDesc(isps.MustParse(isps.Format(d))) != d {
			t.Fatalf("%s: Intern of a copy gives another node", what)
		}
	}
	steps := 0
	replayCatalog(t, func(s *core.Session, st core.Step, prev *isps.Description) {
		text := isps.Format(prev)
		steps++
		check(fmt.Sprintf("%s step %d (%s)", s.Desc(st.Side).Name, st.Index, st.Xform), s.Desc(st.Side))
		if isps.Format(prev) != text {
			t.Fatalf("step %d (%s) changed its input description", st.Index, st.Xform)
		}
	})
	for _, a := range append(proofs.Table2(), proofs.Extensions()...) {
		s, _, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []*isps.Description{s.Op, s.Ins, s.Variant, s.OpVariant} {
			check(a.Instruction+"/"+a.Operator, d)
		}
	}
	if steps < 250 {
		t.Fatalf("replayed %d steps; the catalog replay is broken", steps)
	}
}

// TestNormalizeRecoversProbePanic: a reducing transformation that panics
// while Normalize probes it is counted under transform.error and skipped,
// as the auto-search's probes are, and the tactic goes on with the other
// folds. fold.add's registry entry panics for the test's duration.
func TestNormalizeRecoversProbePanic(t *testing.T) {
	tr, err := transform.Get("fold.add")
	if err != nil {
		t.Fatal(err)
	}
	orig := tr.Apply
	tr.Apply = func(*isps.Description, isps.Path, transform.Args) (*transform.Outcome, error) {
		panic("injected fold.add fault")
	}
	defer func() { tr.Apply = orig }()

	op := isps.MustParse(`op.operation := begin
** S **
  x: integer,
  op.execute := begin
    input (x);
    output (x);
  end
end`)
	ins := isps.MustParse(`ins.instruction := begin
** S **
  f<>, x: integer,
  ins.execute := begin
    input (f, x);
    x <- f + 1;
    output (x);
  end
end`)
	s, err := core.NewSession(op, ins)
	if err != nil {
		t.Fatal(err)
	}
	s.Metrics = obs.NewRegistry()
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("a probe's panic escaped Normalize: %v", r)
			}
		}()
		// f = 0 propagates to x <- 0 + 1: fold.add's gate passes, its probe
		// panics, and simplify.add.zero folds the sum instead.
		if err := s.FixOperand(core.InsSide, "f", 0); err != nil {
			t.Fatal(err)
		}
	}()
	if got := s.Metrics.Counter("transform.error", "fold.add"); got != 1 {
		t.Errorf("transform.error{fold.add} = %d, want 1", got)
	}
	if got := s.Metrics.Counter("transform.applied", "fold.add"); got != 0 {
		t.Errorf("transform.applied{fold.add} = %d, want 0", got)
	}
	if text := isps.Format(s.Ins); !strings.Contains(text, "x <- 1;") {
		t.Errorf("normalization did not go on past the panicking probe:\n%s", text)
	}
}
