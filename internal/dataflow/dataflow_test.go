package dataflow

import (
	"testing"

	"extra/internal/isps"
)

func parse(t *testing.T, decls, body string) *isps.Description {
	t.Helper()
	src := "t.operation := begin\n** S **\n" + decls + "\nt.execute := begin\n" + body + "\nend\nend"
	d, err := isps.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func TestEffectsAssignment(t *testing.T) {
	d := parse(t, "a: integer, b: integer,", "input (a);\nb <- a + 1;\noutput (b);")
	funcs := FuncMap(d)
	asn := d.Routine().Body.Stmts[1]
	e := NodeEffects(asn, funcs)
	if !e.MayUse["a"] || e.MayUse["b"] {
		t.Errorf("uses = %v", e.MayUse)
	}
	if !e.MustDef["b"] || e.MustDef["a"] {
		t.Errorf("must defs = %v", e.MustDef)
	}
}

func TestEffectsMemoryPseudoResource(t *testing.T) {
	d := parse(t, "a: integer, b: integer,", "input (a, b);\nMb[a] <- b;\nb <- Mb[a];")
	funcs := FuncMap(d)
	store := d.Routine().Body.Stmts[1]
	load := d.Routine().Body.Stmts[2]
	se := NodeEffects(store, funcs)
	if !se.MayDef[MemName] {
		t.Error("store does not may-define memory")
	}
	if se.MustDef[MemName] {
		t.Error("a byte store must not kill all of memory")
	}
	le := NodeEffects(load, funcs)
	if !le.MayUse[MemName] {
		t.Error("load does not use memory")
	}
	if Independent(store, load, funcs) {
		t.Error("store and load through memory reported independent")
	}
}

func TestEffectsBranchesIntersectMustDefs(t *testing.T) {
	d := parse(t, "c<>, x: integer, y: integer,",
		"input (c);\nif c then x <- 1; y <- 1; else x <- 2; end_if;")
	funcs := FuncMap(d)
	ifs := d.Routine().Body.Stmts[1]
	e := NodeEffects(ifs, funcs)
	if !e.MustDef["x"] {
		t.Error("x assigned on both paths should be a must-def")
	}
	if e.MustDef["y"] {
		t.Error("y assigned on one path must not be a must-def")
	}
	if !e.MayDef["y"] {
		t.Error("y should be a may-def")
	}
}

func TestEffectsLoopHasNoMustDefs(t *testing.T) {
	d := parse(t, "n: integer, x: integer,",
		"input (n);\nrepeat\nexit_when (n = 0);\nx <- 1;\nn <- n - 1;\nend_repeat;")
	funcs := FuncMap(d)
	loop := d.Routine().Body.Stmts[1]
	e := NodeEffects(loop, funcs)
	if len(e.MustDef) != 0 {
		t.Errorf("loop must-defs = %v, want none (an early exit skips the body)", e.MustDef)
	}
	if !e.MayDef["x"] || !e.MayDef["n"] {
		t.Errorf("loop may-defs = %v", e.MayDef)
	}
}

func TestCallEffects(t *testing.T) {
	src := `t.operation := begin
** S **
  p: integer, x: integer,
  f()<7:0> := begin
    f <- Mb[p];
    p <- p + 1;
  end
  t.execute := begin
    input (p);
    x <- f();
    output (x);
  end
end`
	d := isps.MustParse(src)
	funcs := FuncMap(d)
	call := d.Routine().Body.Stmts[1]
	e := NodeEffects(call, funcs)
	if !e.MayDef["p"] {
		t.Error("call's side effect on p not visible")
	}
	if !e.MayUse[MemName] {
		t.Error("call's memory read not visible")
	}
	if !e.MayUse["f"] {
		t.Error("call's return slot not read")
	}
}

func TestIndependent(t *testing.T) {
	d := parse(t, "a: integer, b: integer, c: integer,",
		"input (a, b);\na <- a + 1;\nb <- b + 1;\nc <- a;\noutput (c);")
	funcs := FuncMap(d)
	s := d.Routine().Body.Stmts
	if !Independent(s[1], s[2], funcs) {
		t.Error("a++ and b++ should be independent")
	}
	if Independent(s[1], s[3], funcs) {
		t.Error("a++ and c <- a must conflict")
	}
	if Independent(s[0], s[0], funcs) {
		t.Error("two input statements must conflict on the i/o stream")
	}
}

func TestExitNeverIndependent(t *testing.T) {
	d := parse(t, "a: integer, b: integer, c<>,",
		"input (a, c);\nrepeat\nexit_when (a = 0);\na <- a - 1;\n"+
			"if c then exit_when (a = 1); end_if;\nb <- 0;\n"+
			"repeat\nexit_when (a = 2);\na <- a - 1;\nend_repeat;\nend_repeat;")
	funcs := FuncMap(d)
	loop := d.Routine().Body.Stmts[1].(*isps.RepeatStmt)
	s := loop.Body.Stmts
	if Independent(s[0], s[1], funcs) {
		t.Error("an exit_when may never be reordered")
	}
	if Independent(s[2], s[3], funcs) {
		t.Error("a conditional holding an exit_when can leave the loop; it may never be reordered")
	}
	if !Independent(s[4], s[3], funcs) {
		t.Error("an exit_when inside a nested repeat leaves only that repeat; b <- 0 is independent of it")
	}
}

func TestLivenessStraightLine(t *testing.T) {
	d := parse(t, "a: integer, b: integer,",
		"input (a);\nb <- a + 1;\na <- 0;\noutput (b);")
	g := BuildCFG(d.Routine().Body, FuncMap(d))
	// After b <- a + 1, a is dead (it is reassigned, then unused).
	live, err := g.LiveAfter(isps.Path{1}, "a")
	if err != nil {
		t.Fatal(err)
	}
	if live {
		t.Error("a live after its last use")
	}
	liveB, _ := g.LiveAfter(isps.Path{1}, "b")
	if !liveB {
		t.Error("b dead despite the output")
	}
}

func TestLivenessThroughLoop(t *testing.T) {
	d := parse(t, "n: integer, s: integer,",
		"input (n);\ns <- 0;\nrepeat\nexit_when (n = 0);\ns <- s + 1;\nn <- n - 1;\nend_repeat;\noutput (s);")
	g := BuildCFG(d.Routine().Body, FuncMap(d))
	// n is read at the loop top on the back edge: live after its decrement.
	live, err := g.LiveAfter(isps.Path{2, 0, 2}, "n")
	if err != nil {
		t.Fatal(err)
	}
	if !live {
		t.Error("n dead after decrement despite the back edge")
	}
	// At loop exit, s is live (output) and n is dead.
	liveN, err := g.LiveAtLoopExit(isps.Path{2}, "n")
	if err != nil {
		t.Fatal(err)
	}
	if liveN {
		t.Error("n live at loop exit")
	}
	liveS, _ := g.LiveAtLoopExit(isps.Path{2}, "s")
	if !liveS {
		t.Error("s dead at loop exit despite the output")
	}
}

func TestLiveAtStmtExitOfConditional(t *testing.T) {
	d := parse(t, "c<>, x: integer,",
		"input (c);\nif c then x <- 1; else x <- 2; end_if;\noutput (c);")
	g := BuildCFG(d.Routine().Body, FuncMap(d))
	// x is used only inside the conditional: dead once it completes.
	live, err := g.LiveAtStmtExit(isps.Path{1}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if live {
		t.Error("x live after the whole conditional")
	}
	liveC, _ := g.LiveAtStmtExit(isps.Path{1}, "c")
	if !liveC {
		t.Error("c dead despite the output after the conditional")
	}
}

func TestNodeAtUnknownPath(t *testing.T) {
	d := parse(t, "a: integer,", "input (a);")
	g := BuildCFG(d.Routine().Body, FuncMap(d))
	// The empty path addresses the body itself; it must not match the exit
	// node's nil path.
	for _, p := range []isps.Path{{9}, {}} {
		if _, err := g.NodeAt(p); err == nil {
			t.Errorf("NodeAt accepted the bogus path %s", p)
		}
	}
}

func TestHelpers(t *testing.T) {
	d := parse(t, "a: integer, b: integer,", "input (a);\nMb[a] <- 1;\nb <- Mb[a + 1];")
	s := d.Routine().Body.Stmts
	if !UsesName(s[2], "a") || UsesName(s[1], "b") {
		t.Error("UsesName misclassifies")
	}
	if HasCalls(s[1]) {
		t.Error("phantom call")
	}
}
