package transform

import (
	"fmt"

	"extra/internal/dataflow"
	"extra/internal/isps"
)

// loopShape gathers the structural facts about a repeat loop that the loop
// transformations check: its body, its top-level exit positions, and its
// position in the containing block.
type loopShape struct {
	loop     *isps.RepeatStmt
	loopPath isps.Path
	body     *isps.Block
	exitIdxs []int
	blk      *isps.Block
	blkPath  isps.Path
	idx      int
}

// analyzeLoop resolves a repeat loop and requires every exit_when in it to
// be a top-level statement of the loop body (the only form the loop
// transformations reason about).
func analyzeLoop(d *isps.Description, at isps.Path) (*loopShape, error) {
	blk, blkPath, idx, err := resolveStmtIndex(d, at)
	if err != nil {
		return nil, err
	}
	loop, ok := blk.Stmts[idx].(*isps.RepeatStmt)
	if !ok {
		return nil, fmt.Errorf("transform: path %s is not a repeat loop", at)
	}
	sh := &loopShape{
		loop:     loop,
		loopPath: append(isps.Path(nil), at...),
		body:     loop.Body,
		blk:      blk,
		blkPath:  blkPath,
		idx:      idx,
	}
	for i, s := range loop.Body.Stmts {
		if _, isExit := s.(*isps.ExitWhenStmt); isExit {
			sh.exitIdxs = append(sh.exitIdxs, i)
			continue
		}
		nested := false
		isps.Visit(s, func(n isps.Node) bool {
			switch n.(type) {
			case *isps.ExitWhenStmt:
				nested = true
				return false
			case *isps.RepeatStmt:
				// Exits inside a nested loop belong to that loop.
				return false
			}
			return true
		})
		if nested {
			return nil, fmt.Errorf("transform: loop at %s has an exit_when nested inside statement %d", at, i)
		}
	}
	return sh, nil
}

// exitBranch identifies which branch of the conditional immediately
// following a two-exit loop corresponds to exiting via the exit at body
// index e2 (which must not be the first exit). Two recognizers apply:
//
//   - the conditional tests the first exit's condition, whose variables are
//     untouched between the first exit's test and e2 ("then" means exited
//     via the first exit, so e2 owns the else branch);
//   - the conditional tests a witness flag that is e2's own condition: the
//     flag is 0 before the loop, set by an if immediately before e2, and
//     written nowhere else (then e2 owns the then branch).
//
// It returns 1 for the then branch, 2 for the else branch.
func exitBranch(d *isps.Description, sh *loopShape, e2 int, postIf *isps.IfStmt) (int, error) {
	if len(sh.exitIdxs) != 2 || sh.exitIdxs[0] != 0 || sh.exitIdxs[1] != e2 {
		return 0, fmt.Errorf("loop must have exactly two top-level exits, the first at the top (have %v, e2=%d)", sh.exitIdxs, e2)
	}
	funcs := dataflow.FuncMap(d)
	e1cond := sh.body.Stmts[0].(*isps.ExitWhenStmt).Cond
	e2cond := sh.body.Stmts[e2].(*isps.ExitWhenStmt).Cond

	// Recognizer 1: post-loop condition is the first exit's condition.
	if isps.Equal(postIf.Cond, e1cond) {
		vars := dataflow.NodeEffects(e1cond, funcs).MayUse
		seg := &isps.Block{Stmts: sh.body.Stmts[1:e2]}
		eff := dataflow.NodeEffects(seg, funcs).Union(dataflow.NodeEffects(e2cond, funcs))
		if v, ok := firstCommon(vars, eff.MayDef); ok {
			return 0, fmt.Errorf("variable %s of the first exit's condition is written before exit %d", v, e2)
		}
		return 2, nil
	}

	// Recognizer 2: witness flag.
	flag, ok := e2cond.(*isps.Ident)
	if !ok {
		return 0, fmt.Errorf("post-loop conditional matches neither the first exit's condition nor a witness flag")
	}
	pid, ok := postIf.Cond.(*isps.Ident)
	if !ok || pid.Name != flag.Name {
		return 0, fmt.Errorf("post-loop conditional does not test the witness flag %s", flag.Name)
	}
	if err := checkWitnessFlag(d, sh, e2, flag.Name); err != nil {
		return 0, err
	}
	return 1, nil
}

// checkWitnessFlag verifies that flag at exit e2 is a proper exit witness:
// initialized to 0 before the loop, assigned only by the two-armed
// conditional immediately before e2 (one arm 1, the other 0), and written
// nowhere else in the loop.
func checkWitnessFlag(d *isps.Description, sh *loopShape, e2 int, flag string) error {
	funcs := dataflow.FuncMap(d)
	if e2 == 0 {
		return fmt.Errorf("witness exit cannot be the loop's first statement")
	}
	setter, ok := sh.body.Stmts[e2-1].(*isps.IfStmt)
	if !ok || !isFlagSetter(setter, flag) {
		return fmt.Errorf("statement before the witness exit does not set %s to 1/0", flag)
	}
	// No other defs of the flag inside the loop.
	defs := 0
	isps.Visit(sh.body, func(n isps.Node) bool {
		if a, ok := n.(*isps.AssignStmt); ok {
			if id, ok := a.LHS.(*isps.Ident); ok && id.Name == flag {
				defs++
			}
		}
		return true
	})
	if defs != 2 {
		return fmt.Errorf("witness flag %s is assigned %d times in the loop, want exactly the setter's 2", flag, defs)
	}
	// Initialized to 0 before the loop in the same block, unmodified in
	// between.
	init := -1
	for i := sh.idx - 1; i >= 0; i-- {
		if a, ok := sh.blk.Stmts[i].(*isps.AssignStmt); ok {
			if id, ok := a.LHS.(*isps.Ident); ok && id.Name == flag {
				if v, isNum := numVal(a.RHS); isNum && v == 0 {
					init = i
				}
				break
			}
		}
		if dataflow.MayDefine(sh.blk.Stmts[i], flag, funcs) {
			break
		}
	}
	if init < 0 {
		return fmt.Errorf("witness flag %s is not initialized to 0 before the loop", flag)
	}
	for i := init + 1; i < sh.idx; i++ {
		if dataflow.MayDefine(sh.blk.Stmts[i], flag, funcs) {
			return fmt.Errorf("witness flag %s is modified between its initialization and the loop", flag)
		}
	}
	return nil
}

// isFlagSetter reports whether s is `if C then f <- 1 else f <- 0 end_if`
// (in either polarity order it must be exactly 1 in one arm, 0 in the
// other, with nothing else in the arms). Only the 1-in-then form witnesses
// the exit, so polarity is checked.
func isFlagSetter(s *isps.IfStmt, flag string) bool {
	arm := func(b *isps.Block) (int64, bool) {
		if len(b.Stmts) != 1 {
			return 0, false
		}
		a, ok := b.Stmts[0].(*isps.AssignStmt)
		if !ok {
			return 0, false
		}
		id, ok := a.LHS.(*isps.Ident)
		if !ok || id.Name != flag {
			return 0, false
		}
		v, isNum := numVal(a.RHS)
		return v, isNum
	}
	tv, ok1 := arm(s.Then)
	ev, ok2 := arm(s.Else)
	return ok1 && ok2 && tv == 1 && ev == 0
}

func init() {
	register(&Transformation{
		Name:     "loop.exit.witness",
		Category: Loop,
		Effect:   Preserving,
		Doc: "Introduce a witness flag for a loop exit: `exit_when C` becomes " +
			"`if C then f <- 1 else f <- 0 end_if; exit_when (f)` with f " +
			"cleared before the loop, and the conditional immediately after " +
			"the loop — which must test the first exit's condition — is " +
			"rewritten to test f with its branches swapped. Valid when the " +
			"first exit's condition variables are untouched between the two " +
			"exits, so the post-loop test discriminates the exit cause. " +
			"Args: flag (fresh name). Path addresses the exit_when.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			flag, err := args.Str("flag")
			if err != nil {
				return nil, err
			}
			if !isps.NameFree(d, flag) {
				return nil, errPrecond("loop.exit.witness", "flag name %q is already in use", flag)
			}
			// at addresses the exit_when; derive the loop.
			loopPath, err := enclosingLoop(d, at)
			if err != nil {
				return nil, err
			}
			sh, err := analyzeLoop(d, loopPath)
			if err != nil {
				return nil, err
			}
			if len(at) != len(loopPath)+2 {
				return nil, errPrecond("loop.exit.witness", "path %s does not address a top-level loop statement", at)
			}
			e2 := at[len(at)-1]
			ex, ok := sh.body.Stmts[e2].(*isps.ExitWhenStmt)
			if !ok {
				return nil, errPrecond("loop.exit.witness", "path %s is not an exit_when", at)
			}
			if len(sh.exitIdxs) != 2 || sh.exitIdxs[0] != 0 || sh.exitIdxs[1] != e2 {
				return nil, errPrecond("loop.exit.witness", "loop must have exactly two top-level exits with the target second (have %v)", sh.exitIdxs)
			}
			if sh.idx+1 >= len(sh.blk.Stmts) {
				return nil, errPrecond("loop.exit.witness", "no conditional immediately follows the loop")
			}
			postIf, ok := sh.blk.Stmts[sh.idx+1].(*isps.IfStmt)
			if !ok {
				return nil, errPrecond("loop.exit.witness", "statement after the loop is not a conditional")
			}
			funcs := dataflow.FuncMap(d)
			e1cond := sh.body.Stmts[0].(*isps.ExitWhenStmt).Cond
			if !isps.Equal(postIf.Cond, e1cond) {
				return nil, errPrecond("loop.exit.witness", "post-loop conditional %s does not test the first exit's condition %s",
					exprText{postIf.Cond}, exprText{e1cond})
			}
			condVars := dataflow.NodeEffects(e1cond, funcs).MayUse
			seg := &isps.Block{Stmts: sh.body.Stmts[1:e2]}
			segEff := dataflow.NodeEffects(seg, funcs).Union(dataflow.NodeEffects(ex.Cond, funcs))
			if v, ok := firstCommon(condVars, segEff.MayDef); ok {
				return nil, errPrecond("loop.exit.witness", "%s (used by the first exit's condition) is written between the exits", v)
			}
			// Rewrite: replace the exit with setter + flag exit, clear the
			// flag before the loop, and make the post-loop conditional test
			// the flag with its arms swapped.
			setter := &isps.IfStmt{
				Cond: ex.Cond,
				Then: &isps.Block{Stmts: []isps.Stmt{&isps.AssignStmt{LHS: &isps.Ident{Name: flag}, RHS: &isps.Num{Val: 1}}}},
				Else: &isps.Block{Stmts: []isps.Stmt{&isps.AssignStmt{LHS: &isps.Ident{Name: flag}, RHS: &isps.Num{Val: 0}}}},
			}
			newExit := &isps.ExitWhenStmt{Cond: &isps.Ident{Name: flag}}
			body := make([]isps.Stmt, 0, len(sh.body.Stmts)+1)
			body = append(body, sh.body.Stmts[:e2]...)
			body = append(body, setter, newExit)
			body = append(body, sh.body.Stmts[e2+1:]...)
			nd, err := d.SpliceAtDesc(sh.blkPath, sh.idx, 2,
				&isps.AssignStmt{LHS: &isps.Ident{Name: flag}, RHS: &isps.Num{Val: 0}},
				&isps.RepeatStmt{Body: &isps.Block{Stmts: body}},
				&isps.IfStmt{Cond: &isps.Ident{Name: flag}, Then: postIf.Else, Else: postIf.Then})
			if err == nil {
				nd, err = withRegDecl(nd, flag, 1, "exit witness flag")
			}
			if err != nil {
				return nil, err
			}
			// Four elementary edits: the setter, the new exit, the clear,
			// and the post-loop rewrite.
			return &Outcome{Desc: nd, Rewrites: 4, Note: "introduced exit witness flag " + flag}, nil
		},
	})

	register(&Transformation{
		Name:     "loop.move.increment",
		Category: Loop,
		Effect:   Preserving,
		Doc: "Move a step assignment `v <- v + 1` (or - 1) across an adjacent " +
			"exit_when, compensating the post-loop uses of v in the branch " +
			"owned by that exit. Valid when the exit condition does not read " +
			"v, the conditional immediately after the loop discriminates the " +
			"exit cause (first-exit condition or witness flag, untouched by " +
			"v), and no post-loop statement outside that conditional uses v. " +
			"Args: dir=down (move past the following exit) or up.",
		Apply: applyMoveIncrement,
	})

	register(&Transformation{
		Name:     "loop.countdown.intro",
		Category: Loop,
		Effect:   Preserving,
		Doc: "Replace an up-counted limit test by a fresh down counter: with " +
			"`i <- 0` before the loop, a single step `i <- i + 1` in it, and " +
			"a loop-invariant limit n, insert `len <- n` and a paired " +
			"`len <- len - 1`, then rewrite `i = n` tests (the exit and the " +
			"conditional immediately after the loop) to `len = 0`, justified " +
			"by the invariant len = n - i. Args: i, n, len (fresh).",
		Apply: applyCountdownIntro,
	})

	register(&Transformation{
		Name:     "loop.induction.index",
		Category: Loop,
		Effect:   Preserving,
		Doc: "Rewrite a stepped pointer as base + index: pointer p, defined " +
			"only by the input statement and a single in-loop `p <- p + 1`, " +
			"is frozen at its initial value; a fresh index i counts the steps " +
			"and every use of p in the loop and after it becomes (p + i). " +
			"Assumes addresses do not wrap within one string (the paper " +
			"excludes addressing calculations from descriptions). " +
			"Args: p, i (fresh), width (bits of i).",
		Apply: applyInductionIndex,
	})

	register(&Transformation{
		Name:     "loop.induction.merge",
		Category: Loop,
		Effect:   Preserving,
		Doc: "Merge two congruent induction variables: both initialized to the " +
			"same constant before the loop, stepped by the same amount in " +
			"adjacent statements, written nowhere else. Every use of the " +
			"dropped variable becomes the kept one. Args: keep, drop.",
		Apply: applyInductionMerge,
	})

	register(&Transformation{
		Name:     "loop.rotate.guarded",
		Category: Loop,
		Effect:   Preserving,
		Doc: "Rotate a guarded bottom-test loop into a top-test loop: " +
			"`if C then repeat BODY; exit_when D end_repeat end_if` with D " +
			"the negation of C and no other exit becomes " +
			"`repeat exit_when D; BODY end_repeat` (pure loop rotation).",
		Apply: applyRotateGuarded,
	})

	register(&Transformation{
		Name:     "loop.delete.dead",
		Category: Loop,
		Effect:   Preserving,
		Doc: "Delete a loop that exits on entry: its first statement is " +
			"`exit_when (c)` with c a nonzero constant, or `exit_when (v = c)` " +
			"where the statement immediately before the loop is `v <- c`. " +
			"Either way the body never runs.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			loop, ok := blk.Stmts[idx].(*isps.RepeatStmt)
			if !ok {
				return nil, errPrecond("loop.delete.dead", "path %s is not a repeat loop", at)
			}
			if len(loop.Body.Stmts) == 0 {
				return nil, errPrecond("loop.delete.dead", "loop body is empty (it would not terminate)")
			}
			ex, ok := loop.Body.Stmts[0].(*isps.ExitWhenStmt)
			if !ok {
				return nil, errPrecond("loop.delete.dead", "loop does not start with an exit_when")
			}
			if !exitsOnEntry(ex.Cond, blk, idx) {
				return nil, errPrecond("loop.delete.dead", "cannot show the first exit fires on loop entry (condition %s)", exprText{ex.Cond})
			}
			nd, err := d.SpliceAtDesc(parentPath, idx, 1)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "deleted loop that exits immediately"}, nil
		},
	})

	register(&Transformation{
		Name:     "loop.dowhile.count",
		Category: Loop,
		Effect:   Preserving,
		Doc: "Convert a bottom-test counted loop running at most k+1 times " +
			"(k preloaded with n - 1) into a top-test loop running at most n " +
			"times, introducing the constraint n >= 1 under which the two " +
			"agree (the IBM 370 mvc length encoding, paper section 4.2). " +
			"Earlier exits in the body are permitted as long as they do not " +
			"touch the counters; k and n must be dead after the loop. " +
			"Args: k, n.",
		Apply: applyDoWhileCount,
	})

	register(&Transformation{
		Name:     "loop.reverse.copy",
		Category: Loop,
		Effect:   Preserving,
		Doc: "Collapse an overlap-guarded block copy to its forward loop: " +
			"when both arms of a conditional copy the same len bytes from src " +
			"to dst (one backward, one forward) and a no-overlap predicate " +
			"constraint makes the directions indistinguishable, replace the " +
			"conditional by the forward loop. Emits the multi-operand " +
			"predicate constraint the paper's EXTRA could not represent " +
			"(section 4.3); only extended-mode sessions accept it. " +
			"Args: len, src, dst.",
		Apply: applyReverseCopy,
	})
}

// exitsOnEntry proves the exit condition is true the first time the loop at
// blk[loopIdx] is entered: either the condition is a nonzero constant, or
// it is `v = c` (or `c = v`) and the statement immediately before the loop
// is `v <- c`.
func exitsOnEntry(cond isps.Expr, blk *isps.Block, loopIdx int) bool {
	if v, isNum := numVal(cond); isNum {
		return v != 0
	}
	b, ok := cond.(*isps.Bin)
	if !ok || b.Op != isps.OpEq {
		return false
	}
	id, okID := b.X.(*isps.Ident)
	c, okC := numVal(b.Y)
	if !okID || !okC {
		id, okID = b.Y.(*isps.Ident)
		c, okC = numVal(b.X)
		if !okID || !okC {
			return false
		}
	}
	if loopIdx == 0 {
		return false
	}
	pre, ok := blk.Stmts[loopIdx-1].(*isps.AssignStmt)
	if !ok {
		return false
	}
	lhs, ok := pre.LHS.(*isps.Ident)
	if !ok || lhs.Name != id.Name {
		return false
	}
	v, isNum := numVal(pre.RHS)
	return isNum && v == c
}
