package proofs

import (
	"fmt"
	"sort"
	"testing"

	"extra/internal/core"
	"extra/internal/dataflow"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
)

// This file keeps the earlier dataflow analysis as a reference: effect sets
// built from fresh maps at every AST node and merged upward, and liveness
// as an all-names fixpoint over two sets per CFG node. The package answers
// the same questions with one effect set per query and one forward search
// per liveness query; TestLivenessMatchesFixpoint checks that they agree.

func refNewEffects() dataflow.Effects {
	return dataflow.Effects{MayUse: map[string]bool{}, MayDef: map[string]bool{}, MustDef: map[string]bool{}}
}

// refBranch composes the effects of two alternatives: must-defs intersect.
func refBranch(a, b dataflow.Effects) dataflow.Effects {
	out := refNewEffects()
	for _, m := range []map[string]bool{a.MayUse, b.MayUse} {
		for k := range m {
			out.MayUse[k] = true
		}
	}
	for _, m := range []map[string]bool{a.MayDef, b.MayDef} {
		for k := range m {
			out.MayDef[k] = true
		}
	}
	for k := range a.MustDef {
		if b.MustDef[k] {
			out.MustDef[k] = true
		}
	}
	return out
}

// refNodeEffects is the reference dataflow.NodeEffects.
func refNodeEffects(n isps.Node, funcs map[string]*isps.FuncDecl) dataflow.Effects {
	switch x := n.(type) {
	case *isps.Ident:
		e := refNewEffects()
		e.MayUse[x.Name] = true
		return e
	case *isps.Mem:
		e := refNodeEffects(x.Addr, funcs)
		e.MayUse[dataflow.MemName] = true
		return e
	case *isps.Call:
		e := refNewEffects()
		if f, ok := funcs[x.Name]; ok {
			e = e.Union(refNodeEffects(f.Body, funcs))
		}
		e.MayUse[x.Name] = true
		return e
	case *isps.Un:
		return refNodeEffects(x.X, funcs)
	case *isps.Bin:
		return refNodeEffects(x.X, funcs).Union(refNodeEffects(x.Y, funcs))
	case *isps.AssignStmt:
		e := refNodeEffects(x.RHS, funcs)
		switch lhs := x.LHS.(type) {
		case *isps.Ident:
			e.MayDef[lhs.Name] = true
			e.MustDef[lhs.Name] = true
		case *isps.Mem:
			e = e.Union(refNodeEffects(lhs.Addr, funcs))
			e.MayDef[dataflow.MemName] = true
		}
		return e
	case *isps.IfStmt:
		return refNodeEffects(x.Cond, funcs).Union(refBranch(refNodeEffects(x.Then, funcs), refNodeEffects(x.Else, funcs)))
	case *isps.RepeatStmt:
		e := refNodeEffects(x.Body, funcs)
		e.MustDef = map[string]bool{}
		return e
	case *isps.ExitWhenStmt:
		return refNodeEffects(x.Cond, funcs)
	case *isps.AssertStmt:
		return refNodeEffects(x.Cond, funcs)
	case *isps.InputStmt:
		e := refNewEffects()
		for _, name := range x.Names {
			e.MayDef[name] = true
			e.MustDef[name] = true
		}
		e.MayDef[dataflow.IOName] = true
		return e
	case *isps.OutputStmt:
		e := refNewEffects()
		for _, ex := range x.Exprs {
			e = e.Union(refNodeEffects(ex, funcs))
		}
		e.MayDef[dataflow.IOName] = true
		return e
	case *isps.Block:
		e := refNewEffects()
		for _, s := range x.Stmts {
			e = e.Union(refNodeEffects(s, funcs))
		}
		return e
	}
	return refNewEffects()
}

// refNodeEff is what BuildCFG evaluates at a node, computed with the
// reference effects: an if or exit_when evaluates its condition, a repeat
// head and the exit node evaluate nothing.
func refNodeEff(n *dataflow.GNode, funcs map[string]*isps.FuncDecl) dataflow.Effects {
	switch st := n.Stmt.(type) {
	case nil, *isps.RepeatStmt:
		return refNewEffects()
	case *isps.IfStmt:
		return refNodeEffects(st.Cond, funcs)
	case *isps.ExitWhenStmt:
		return refNodeEffects(st.Cond, funcs)
	default:
		return refNodeEffects(st, funcs)
	}
}

// refLiveness is the reference all-names fixpoint of
// liveIn = MayUse ∪ (liveOut − MustDef).
type refLiveness struct {
	liveIn, liveOut []map[string]bool
}

func refLive(g *dataflow.Graph, eff []dataflow.Effects) *refLiveness {
	l := &refLiveness{
		liveIn:  make([]map[string]bool, len(g.Nodes)),
		liveOut: make([]map[string]bool, len(g.Nodes)),
	}
	for i := range g.Nodes {
		l.liveIn[i] = map[string]bool{}
		l.liveOut[i] = map[string]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := len(g.Nodes) - 1; i >= 0; i-- {
			out, in := l.liveOut[i], l.liveIn[i]
			for _, s := range g.Nodes[i].Succs {
				for k := range l.liveIn[s] {
					if !out[k] {
						out[k] = true
						changed = true
					}
				}
			}
			for k := range eff[i].MayUse {
				if !in[k] {
					in[k] = true
					changed = true
				}
			}
			for k := range out {
				if !eff[i].MustDef[k] && !in[k] {
					in[k] = true
					changed = true
				}
			}
		}
	}
	return l
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func effDiff(got, want dataflow.Effects) string {
	if sameSet(got.MayUse, want.MayUse) && sameSet(got.MayDef, want.MayDef) && sameSet(got.MustDef, want.MustDef) {
		return ""
	}
	return fmt.Sprintf("got use %v def %v must %v, want use %v def %v must %v",
		got.MayUse, got.MayDef, got.MustDef, want.MayUse, want.MayDef, want.MustDef)
}

// livenessStates returns every corpus description and every intermediate
// state of the catalog analyses, each labelled. A state is reached by
// replaying a finished session's recorded steps on a fresh session.
func livenessStates(t *testing.T) (labels []string, states []*isps.Description) {
	t.Helper()
	for _, e := range machines.All() {
		labels = append(labels, "machine "+e.Instruction)
		states = append(states, machines.Get(e.Instruction))
	}
	for _, e := range langops.All() {
		labels = append(labels, "operator "+e.Name)
		states = append(states, langops.Get(e.Name))
	}
	for _, a := range append(Table2(), Extensions()...) {
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
			if err := s.Apply(st.Side, st.Xform, st.At, st.Args); err != nil {
				t.Fatalf("%s/%s: replaying step %d: %v", a.Instruction, a.Operator, st.Index, err)
			}
			labels = append(labels, fmt.Sprintf("%s/%s step %d (%s)", a.Instruction, a.Operator, st.Index, st.Side))
			states = append(states, s.Desc(st.Side))
		}
	}
	return labels, states
}

// TestLivenessMatchesFixpoint checks the per-name liveness queries and the
// effect sets against the reference analysis on every corpus description
// and every intermediate state of the catalog analyses: all three queries at
// every CFG node for every name the graph mentions plus one it does not,
// and NodeEffects at every node of every state.
func TestLivenessMatchesFixpoint(t *testing.T) {
	labels, states := livenessStates(t)
	const unused = "·unused"
	liveChecks, effChecks := 0, 0
	for si, d := range states {
		label := labels[si]
		funcs := dataflow.FuncMap(d)
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			effChecks++
			if diff := effDiff(dataflow.NodeEffects(n, funcs), refNodeEffects(n, funcs)); diff != "" {
				t.Errorf("%s: NodeEffects at %s: %s", label, p, diff)
			}
			return true
		})
		g := dataflow.BuildCFG(d.Routine().Body, funcs)
		eff := make([]dataflow.Effects, len(g.Nodes))
		names := map[string]bool{unused: true}
		for i, n := range g.Nodes {
			eff[i] = refNodeEff(n, funcs)
			if diff := effDiff(n.Eff, eff[i]); diff != "" {
				t.Errorf("%s: CFG node %d (%s): %s", label, i, n.Path, diff)
			}
			for _, m := range []map[string]bool{eff[i].MayUse, eff[i].MayDef} {
				for k := range m {
					names[k] = true
				}
			}
		}
		sorted := make([]string, 0, len(names))
		for k := range names {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		ref := refLive(g, eff)
		for _, n := range g.Nodes {
			if n.Index == g.Exit {
				continue
			}
			for _, name := range sorted {
				liveChecks++
				where := fmt.Sprintf("%s: %s at %s", label, name, n.Path)
				if got, err := g.LiveAfter(n.Path, name); err != nil || got != ref.liveOut[n.Index][name] {
					t.Errorf("%s: LiveAfter = %v, %v; want %v", where, got, err, ref.liveOut[n.Index][name])
				}
				if got, err := g.LiveAtStmtExit(n.Path, name); err != nil || got != ref.liveIn[n.Cont][name] {
					t.Errorf("%s: LiveAtStmtExit = %v, %v; want %v", where, got, err, ref.liveIn[n.Cont][name])
				}
				got, err := g.LiveAtLoopExit(n.Path, name)
				if _, loop := n.Stmt.(*isps.RepeatStmt); !loop {
					if err == nil {
						t.Errorf("%s: LiveAtLoopExit accepted a node that is not a loop", where)
					}
				} else if err != nil || got != ref.liveIn[n.ExitCont][name] {
					t.Errorf("%s: LiveAtLoopExit = %v, %v; want %v", where, got, err, ref.liveIn[n.ExitCont][name])
				}
			}
		}
	}
	t.Logf("%d states: %d node×name liveness checks, %d effects checks", len(states), liveChecks, effChecks)
}
