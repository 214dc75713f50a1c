package transform

import (
	"strings"
	"testing"

	"extra/internal/isps"
)

// These tests document the data-flow preconditions of the sophisticated
// loop transformations by showing inputs that must be rejected — each is a
// would-be unsoundness if the transformation applied anyway.

func TestWitnessRejectsModifiedFirstExitVars(t *testing.T) {
	// n (the first exit's variable) is decremented *between* the exits, so
	// the post-loop test n = 0 no longer discriminates the exit cause.
	d := parse(t, "base: integer, n: integer, i: integer, ch: character, t0<7:0>,",
		`input (base, n, ch);
i <- 0;
repeat
exit_when (n = 0);
t0 <- Mb[base + i];
n <- n - 1;
i <- i + 1;
exit_when (ch = t0);
end_repeat;
if n = 0 then output (0); else output (i); end_if;`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	exitAt := append(append(isps.Path{}, loopAt...), 0, 4)
	mustFail(t, d, "loop.exit.witness", exitAt, Args{"flag": "fw"}, "written between the exits")
}

func TestWitnessRejectsWrongPostLoopTest(t *testing.T) {
	d := parse(t, "base: integer, n: integer, i: integer, ch: character, t0<7:0>,",
		`input (base, n, ch);
i <- 0;
repeat
exit_when (n = 0);
t0 <- Mb[base + i];
i <- i + 1;
exit_when (ch = t0);
end_repeat;
if i = 0 then output (0); else output (i); end_if;`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	exitAt := append(append(isps.Path{}, loopAt...), 0, 3)
	mustFail(t, d, "loop.exit.witness", exitAt, Args{"flag": "fw"},
		"does not test the first exit's condition")
}

func TestInductionRejectsSecondDefinition(t *testing.T) {
	// p is also reset inside the loop: it is not a pure induction.
	d := parse(t, "p: integer, n: integer, s: integer,",
		`input (p, n);
repeat
exit_when (n = 0);
s <- s + Mb[p];
p <- p + 1;
if s = 0 then p <- 0; end_if;
n <- n - 1;
end_repeat;
output (s);`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	mustFail(t, d, "loop.induction.index", loopAt, Args{"p": "p", "i": "i", "width": "0"},
		"non-step definition")
}

func TestInductionRejectsPostLoopAssignments(t *testing.T) {
	// p is assigned after the loop; freezing it would change that code's
	// meaning (the LHS cannot become p + i).
	d := parse(t, "p: integer, n: integer, s: integer,",
		`input (p, n);
repeat
exit_when (n = 0);
s <- s + Mb[p];
p <- p + 1;
n <- n - 1;
end_repeat;
p <- 0;
output (s, p);`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	mustFail(t, d, "loop.induction.index", loopAt, Args{"p": "p", "i": "i", "width": "0"},
		"assigned 2 times")
}

func TestMergeRejectsDifferentInitials(t *testing.T) {
	d := parse(t, "a: integer, n: integer, i: integer, j: integer,",
		`input (a, n);
i <- 0;
j <- 1;
repeat
exit_when (n = 0);
Mb[a + j] <- Mb[a + i];
i <- i + 1;
j <- j + 1;
n <- n - 1;
end_repeat;`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	mustFail(t, d, "loop.induction.merge", loopAt, Args{"keep": "i", "drop": "j"},
		"initial values differ")
}

func TestMergeRejectsNonAdjacentSteps(t *testing.T) {
	// A use of j sits between the two steps, where i and j disagree.
	d := parse(t, "a: integer, n: integer, i: integer, j: integer,",
		`input (a, n);
i <- 0;
j <- 0;
repeat
exit_when (n = 0);
i <- i + 1;
Mb[a + j] <- 1;
j <- j + 1;
n <- n - 1;
end_repeat;`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	mustFail(t, d, "loop.induction.merge", loopAt, Args{"keep": "i", "drop": "j"},
		"not adjacent")
}

func TestMergeRejectsInputOperand(t *testing.T) {
	d := parse(t, "a: integer, n: integer, i: integer, j: integer,",
		`input (a, n, j);
i <- 0;
repeat
exit_when (n = 0);
i <- i + 1;
j <- j + 1;
n <- n - 1;
end_repeat;`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	mustFail(t, d, "loop.induction.merge", loopAt, Args{"keep": "i", "drop": "j"},
		"input operand")
}

func TestDoWhileCountRejectsLiveCounter(t *testing.T) {
	// n is output after the loop; the conversion changes its final value.
	d := parse(t, "b1: integer, b2: integer, n: integer, k<7:0>,",
		`input (b1, b2, n);
k <- n - 1;
repeat
Mb[b1] <- Mb[b2];
b1 <- b1 + 1;
b2 <- b2 + 1;
exit_when (k = 0);
k <- k - 1;
end_repeat;
output (n);`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	mustFail(t, d, "loop.dowhile.count", loopAt, Args{"k": "k", "n": "n"}, "live after the loop")
}

func TestDoWhileCountRejectsCounterUseInBody(t *testing.T) {
	d := parse(t, "b1: integer, n: integer, k<7:0>,",
		`input (b1, n);
k <- n - 1;
repeat
Mb[b1 + k] <- 0;
exit_when (k = 0);
k <- k - 1;
end_repeat;`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	mustFail(t, d, "loop.dowhile.count", loopAt, Args{"k": "k", "n": "n"}, "touches")
}

func TestDoWhileCountAllowsEarlyExit(t *testing.T) {
	// The clc shape: a mismatch exit before the count test is fine.
	d := parse(t, "a1: integer, a2: integer, n: integer, k<7:0>, cc<>,",
		`input (a1, a2, n);
k <- n - 1;
repeat
if Mb[a1] <> Mb[a2] then cc <- 1; else cc <- 0; end_if;
exit_when (cc);
a1 <- a1 + 1;
a2 <- a2 + 1;
exit_when (k = 0);
k <- k - 1;
end_repeat;
output (cc);`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	out := apply(t, d, "loop.dowhile.count", loopAt, Args{"k": "k", "n": "n"})
	// Differential under n >= 1.
	diffCheck(t, d, out.Desc, 8, 9, func(raw []uint64) ([]uint64, []uint64) {
		in := []uint64{raw[0] % 16, 32 + raw[1]%16, raw[2]%6 + 1}
		return in, in
	})
}

func TestCountdownInPlaceRejectsOtherUses(t *testing.T) {
	// limit is also output after the loop, so it cannot be counted down in
	// place.
	d := parse(t, "base: integer, limit: integer, i: integer, c: character,",
		`input (base, limit, c);
i <- 0;
repeat
exit_when (i = limit);
exit_when (Mb[base + i] = c);
i <- i + 1;
end_repeat;
if i = limit then output (0); else output (limit); end_if;`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	mustFail(t, d, "loop.countdown.intro", loopAt,
		Args{"i": "i", "n": "limit", "len": "limit"}, "every use")
}

func TestRotateRejectsExtraExit(t *testing.T) {
	d := parse(t, "n: integer, s: integer,",
		`input (n, s);
if n <> 0
then
repeat
exit_when (s = 9);
s <- s + n;
n <- n - 1;
exit_when (n = 0);
end_repeat;
end_if;
output (s);`)
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	mustFail(t, d, "loop.rotate.guarded", at, nil, "exits")
}

func TestRotateRejectsMismatchedGuard(t *testing.T) {
	d := parse(t, "n: integer, m: integer, s: integer,",
		`input (n, m, s);
if m <> 0
then
repeat
s <- s + n;
n <- n - 1;
exit_when (n = 0);
end_repeat;
end_if;
output (s);`)
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	mustFail(t, d, "loop.rotate.guarded", at, nil, "not the negation")
}

func TestMoveIncrementRejectsPostLoopUseOutsideIf(t *testing.T) {
	d := parse(t, "base: integer, len: integer, i: integer, ch: character, t0<7:0>, fw<>,",
		`input (base, len, ch);
i <- 0;
fw <- 0;
repeat
exit_when (len = 0);
t0 <- Mb[base + i];
if t0 = ch then fw <- 1; else fw <- 0; end_if;
exit_when (fw);
i <- i + 1;
len <- len - 1;
end_repeat;
if fw then output (i + 1); else output (0); end_if;
output (i);`)
	loopAt := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.RepeatStmt); return ok })
	stepAt := append(append(isps.Path{}, loopAt...), 0, 4)
	mustFail(t, d, "loop.move.increment", stepAt, Args{"dir": "up"},
		"used after the post-loop conditional")
}

func TestInlineRejectsOrderViolation(t *testing.T) {
	// The statement reads p before calling f(), and f() writes p: hoisting
	// the body would reorder the read.
	src := `t.operation := begin
** S **
  p: integer, x: integer,
  f()<7:0> := begin
    f <- Mb[p];
    p <- p + 1;
  end
** P **
  t.execute := begin
    input (p);
    x <- p + f();
    output (x);
  end
end`
	d := isps.MustParse(src)
	at := findStmt(t, d, func(s isps.Stmt) bool {
		a, ok := s.(*isps.AssignStmt)
		return ok && isps.ExprString(a.LHS) == "x"
	})
	mustFail(t, d, "routine.inline", at, Args{"temp": "t0"}, "read before the call")
}

func TestHoistRejectsCalls(t *testing.T) {
	src := `t.operation := begin
** S **
  p: integer, ch: character,
  f()<7:0> := begin
    f <- Mb[p];
    p <- p + 1;
  end
** P **
  t.execute := begin
    input (p, ch);
    repeat
      exit_when (ch = f());
    end_repeat;
    output (p);
  end
end`
	d := isps.MustParse(src)
	at, ok := isps.Find(d, func(n isps.Node) bool { _, isCall := n.(*isps.Call); return isCall })
	if !ok {
		t.Fatal("no call")
	}
	mustFail(t, d, "move.hoist.expr", at, Args{"temp": "t0", "width": "8"}, "calls")
}

func TestReverseCopyNeedsDeadPointers(t *testing.T) {
	// Covered positively in transform_test; here the overlap-guard pattern
	// with a cosmetic difference (an extra statement in the backward arm)
	// must be rejected.
	d := parse(t, "len: integer, src: integer, dst: integer, junk: integer,",
		`input (len, src, dst);
if src < dst
then
junk <- 0;
src <- src + len;
dst <- dst + len;
repeat
exit_when (len = 0);
src <- src - 1;
dst <- dst - 1;
Mb[dst] <- Mb[src];
len <- len - 1;
end_repeat;
else
repeat
exit_when (len = 0);
Mb[dst] <- Mb[src];
src <- src + 1;
dst <- dst + 1;
len <- len - 1;
end_repeat;
end_if;`)
	at := findStmt(t, d, func(s isps.Stmt) bool { _, ok := s.(*isps.IfStmt); return ok })
	mustFail(t, d, "loop.reverse.copy", at,
		Args{"len": "len", "src": "src", "dst": "dst"}, "canonical backward copy")
}

// TestPreconditionMessagesAreInformative spot-checks that rejections talk
// about the failing condition, not just "no".
func TestPreconditionMessagesAreInformative(t *testing.T) {
	d := parse(t, "a: integer,", "input (a);\noutput (a);")
	_, err := mustGet(t, "global.const.prop").Apply(d, nil, Args{"var": "a"})
	if err == nil || !strings.Contains(err.Error(), "no top-level definition") {
		t.Errorf("err = %v", err)
	}
}

func mustGet(t *testing.T, name string) *Transformation {
	t.Helper()
	tr, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestHoistRejectsStoreTarget(t *testing.T) {
	// Regression: hoisting the assignment's left-hand side would delete
	// the store (found by the tr/xlate analysis).
	d := parse(t, "a: integer, tbl: integer,",
		"input (a, tbl);\nMb[a] <- Mb[tbl + Mb[a]];")
	// Occurrence #0 of Mb[a] is the store target.
	paths := isps.FindAll(d, func(n isps.Node) bool {
		e, ok := n.(isps.Expr)
		return ok && isps.ExprString(e) == "Mb[a]"
	})
	if len(paths) != 2 {
		t.Fatalf("want 2 occurrences, have %d", len(paths))
	}
	mustFail(t, d, "move.hoist.expr", paths[0], Args{"temp": "t0", "width": "8"},
		"store target")
	// Occurrence #1 (the read) hoists fine and preserves semantics.
	out := apply(t, d, "move.hoist.expr", paths[1], Args{"temp": "t0", "width": "8"})
	diffCheck(t, d, out.Desc, 6, 9, nil)
}

// TestPreconditionMessagesDeterministic: where several variables break a
// data-flow precondition, the message names the smallest in sorted order,
// so a trace event or transform.precond.reason label reads the same on
// every run whatever the map iteration order.
func TestPreconditionMessagesDeterministic(t *testing.T) {
	calls := parse(t, "a: integer, b: integer, p: integer, q: integer, x: integer,\n"+
		"f()<7:0> := begin f <- 0; p <- 1; q <- 1; end", `input (a, b);
if a = b then input (a, b); output (0); else input (a, b); output (1); end_if;
output (p + q);
if f() = 0 then output (p + q); else output (p + q); end_if;
x <- p + q + f();`)
	loop := parse(t, "n: integer, m: integer, i: integer, ch: integer,", `input (n, m, ch);
i <- 0;
repeat
exit_when (n + m = 0);
n <- n - 1;
m <- m - 1;
i <- i + 1;
exit_when (ch = 0);
end_repeat;
if n + m = 0 then output (0); else output (i); end_if;`)
	for _, tc := range []struct {
		d    *isps.Description
		name string
		at   []int // top-level statement index, then a path inside it
		args Args
		want string
	}{
		{calls, "move.dup.into.if", []int{0}, nil, "statement writes a,"},
		{calls, "if.pull.common", []int{1}, nil, "statement writes a,"},
		{calls, "move.dup.into.if", []int{2}, nil, "condition writes p,"},
		{calls, "if.pull.common", []int{3}, nil, "condition writes p,"},
		{calls, "routine.inline", []int{4}, Args{"temp": "t0"}, "p is read before the call"},
		{loop, "loop.move.increment", []int{2, 0, 3}, Args{"dir": "down"}, "variable m of the first exit's"},
		{loop, "loop.exit.witness", []int{2, 0, 4}, Args{"flag": "fw"}, "m (used by the first exit's"},
	} {
		at := findStmt(t, tc.d, func(s isps.Stmt) bool { _, ok := s.(*isps.InputStmt); return ok })
		at = append(at[:len(at)-1:len(at)-1], tc.at...)
		msgs := map[string]bool{}
		for i := 0; i < 50; i++ {
			if _, err := mustGet(t, tc.name).Apply(tc.d, at, tc.args); err != nil {
				msgs[err.Error()] = true
			}
		}
		for msg := range msgs {
			if len(msgs) != 1 || !strings.Contains(msg, tc.want) {
				t.Errorf("%s at %s: got %d distinct messages over 50 runs, want one naming %q: %q", tc.name, at, len(msgs), tc.want, msg)
			}
		}
		if len(msgs) == 0 {
			t.Errorf("%s at %s unexpectedly succeeded", tc.name, at)
		}
	}
}
