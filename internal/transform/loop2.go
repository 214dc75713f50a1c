package transform

import (
	"fmt"

	"extra/internal/constraint"
	"extra/internal/dataflow"
	"extra/internal/isps"
)

// stepAssign recognizes `v <- v + c` / `v <- v - c` and returns v and the
// signed step.
func stepAssign(s isps.Stmt) (string, int64, bool) {
	a, ok := s.(*isps.AssignStmt)
	if !ok {
		return "", 0, false
	}
	lhs, ok := a.LHS.(*isps.Ident)
	if !ok {
		return "", 0, false
	}
	b, ok := a.RHS.(*isps.Bin)
	if !ok || (b.Op != isps.OpAdd && b.Op != isps.OpSub) {
		return "", 0, false
	}
	x, ok := b.X.(*isps.Ident)
	if !ok || x.Name != lhs.Name {
		return "", 0, false
	}
	c, ok := numVal(b.Y)
	if !ok {
		return "", 0, false
	}
	if b.Op == isps.OpSub {
		c = -c
	}
	return lhs.Name, c, true
}

func applyMoveIncrement(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
	const name = "loop.move.increment"
	blk, _, idx, err := resolveStmtIndex(d, at)
	if err != nil {
		return nil, err
	}
	v, step, ok := stepAssign(blk.Stmts[idx])
	if !ok || (step != 1 && step != -1) {
		return nil, errPrecond(name, "path %s is not a unit step assignment", at)
	}
	dir := args["dir"]
	if dir == "" {
		dir = "down"
	}
	exitIdx := idx + 1
	if dir == "up" {
		exitIdx = idx - 1
	}
	if exitIdx < 0 || exitIdx >= len(blk.Stmts) {
		return nil, errPrecond(name, "no adjacent statement in direction %s", dir)
	}
	ex, ok := blk.Stmts[exitIdx].(*isps.ExitWhenStmt)
	if !ok {
		return nil, errPrecond(name, "adjacent statement is not an exit_when")
	}
	if !pureExpr(ex.Cond) {
		return nil, errPrecond(name, "exit condition has side effects")
	}
	if dataflow.UsesName(ex.Cond, v) {
		return nil, errPrecond(name, "exit condition reads %s", v)
	}
	loopPath, err := enclosingLoop(d, at)
	if err != nil {
		return nil, err
	}
	sh, err := analyzeLoop(d, loopPath)
	if err != nil {
		return nil, err
	}
	// The step statement must live at the top level of the loop body, so
	// blk is the loop's body.
	if len(at) != len(loopPath)+2 {
		return nil, errPrecond(name, "step assignment is not a top-level loop statement")
	}
	e2 := exitIdx
	if sh.idx+1 >= len(sh.blk.Stmts) {
		return nil, errPrecond(name, "no conditional immediately follows the loop")
	}
	postIf, ok := sh.blk.Stmts[sh.idx+1].(*isps.IfStmt)
	if !ok {
		return nil, errPrecond(name, "statement after the loop is not a conditional")
	}
	if dataflow.UsesName(postIf.Cond, v) {
		return nil, errPrecond(name, "post-loop condition reads %s", v)
	}
	branch, err := exitBranch(d, sh, e2, postIf)
	if err != nil {
		return nil, errPrecond(name, "cannot attribute post-loop branches to exits: %v", err)
	}
	// No use of v after the post-loop conditional (its value there differs
	// between exit paths once the step has moved).
	for i := sh.idx + 2; i < len(sh.blk.Stmts); i++ {
		if dataflow.UsesName(sh.blk.Stmts[i], v) {
			return nil, errPrecond(name, "%s is used after the post-loop conditional", v)
		}
	}
	ownBranch := postIf.Then
	if branch == 2 {
		ownBranch = postIf.Else
	}
	// Compensate uses of v in the branch owned by the crossed exit:
	// moving the step after the exit (down) leaves v one step behind at
	// that exit, so uses become v + step; moving it before (up) puts v one
	// step ahead, so uses become v - step.
	delta := step
	if dir == "up" {
		delta = -step
	}
	op := isps.OpAdd
	amount := delta
	if delta < 0 {
		op = isps.OpSub
		amount = -delta
	}
	repl := &isps.Bin{Op: op, X: &isps.Ident{Name: v}, Y: &isps.Num{Val: amount}}
	own, _, ok := substitute(ownBranch, v, repl)
	if !ok {
		return nil, errPrecond(name, "%s is assigned in the post-loop branch; cannot compensate", v)
	}
	newIf := &isps.IfStmt{Cond: postIf.Cond, Then: postIf.Then, Else: postIf.Else}
	if branch == 2 {
		newIf.Else = own.(*isps.Block)
	} else {
		newIf.Then = own.(*isps.Block)
	}
	body := append([]isps.Stmt(nil), blk.Stmts...)
	body[idx], body[exitIdx] = body[exitIdx], body[idx]
	nd, err := d.SpliceAtDesc(sh.blkPath, sh.idx, 2, &isps.RepeatStmt{Body: &isps.Block{Stmts: body}}, newIf)
	if err != nil {
		return nil, err
	}
	return &Outcome{Desc: nd, Note: fmt.Sprintf("moved step of %s %s across exit, compensating the exit's branch", v, dir)}, nil
}

func applyCountdownIntro(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
	const name = "loop.countdown.intro"
	iName, err := args.Str("i")
	if err != nil {
		return nil, err
	}
	nName, err := args.Str("n")
	if err != nil {
		return nil, err
	}
	lenName, err := args.Str("len")
	if err != nil {
		return nil, err
	}
	// In-place mode (len = n) counts the limit operand itself down instead
	// of introducing a fresh counter; it needs a stronger precondition, as
	// every use of n must be one of the rewritten limit tests.
	inPlace := lenName == nName
	if !inPlace && !isps.NameFree(d, lenName) {
		return nil, errPrecond(name, "counter name %q is already in use", lenName)
	}
	sh, err := analyzeLoop(d, at)
	if err != nil {
		return nil, err
	}
	funcs := dataflow.FuncMap(d)
	isLimitTest := func(e isps.Expr) bool {
		b, ok := e.(*isps.Bin)
		if !ok || b.Op != isps.OpEq {
			return false
		}
		x, ok1 := b.X.(*isps.Ident)
		y, ok2 := b.Y.(*isps.Ident)
		return ok1 && ok2 &&
			((x.Name == iName && y.Name == nName) || (x.Name == nName && y.Name == iName))
	}
	// Find the limit-test exit.
	exitAt := -1
	for _, ei := range sh.exitIdxs {
		if isLimitTest(sh.body.Stmts[ei].(*isps.ExitWhenStmt).Cond) {
			exitAt = ei
			break
		}
	}
	if exitAt < 0 {
		return nil, errPrecond(name, "no exit tests %s = %s", iName, nName)
	}
	// n must be loop-invariant; i stepped exactly once by +1.
	if dataflow.MayDefine(sh.body, nName, funcs) {
		return nil, errPrecond(name, "%s is written inside the loop", nName)
	}
	stepIdx := -1
	for i, s := range sh.body.Stmts {
		if v, st, ok := stepAssign(s); ok && v == iName {
			if st != 1 || stepIdx >= 0 {
				return nil, errPrecond(name, "%s must be stepped exactly once by +1", iName)
			}
			stepIdx = i
		} else if dataflow.MayDefine(s, iName, funcs) {
			return nil, errPrecond(name, "%s has a non-step definition in the loop", iName)
		}
	}
	if stepIdx < 0 {
		return nil, errPrecond(name, "%s is not stepped in the loop", iName)
	}
	// i initialized to 0 before the loop; n unmodified from there on.
	init := -1
	for i := sh.idx - 1; i >= 0; i-- {
		s := sh.blk.Stmts[i]
		if a, ok := s.(*isps.AssignStmt); ok {
			if id, ok := a.LHS.(*isps.Ident); ok && id.Name == iName {
				if v, isNum := numVal(a.RHS); isNum && v == 0 {
					init = i
				}
				break
			}
		}
		if dataflow.MayDefine(s, iName, funcs) || dataflow.MayDefine(s, nName, funcs) {
			return nil, errPrecond(name, "%s or %s modified between initialization and loop", iName, nName)
		}
	}
	if init < 0 {
		return nil, errPrecond(name, "%s is not initialized to 0 before the loop", iName)
	}
	for i := init + 1; i < sh.idx; i++ {
		if dataflow.MayDefine(sh.blk.Stmts[i], nName, funcs) {
			return nil, errPrecond(name, "%s modified between %s's initialization and the loop", nName, iName)
		}
	}
	// For in-place mode, every use of n must be a limit test about to be
	// rewritten: the exit condition and, possibly, the condition of the
	// conditional immediately following the loop.
	if inPlace {
		allowed := 1 // the exit condition
		if sh.idx+1 < len(sh.blk.Stmts) {
			if postIf, ok := sh.blk.Stmts[sh.idx+1].(*isps.IfStmt); ok && isLimitTest(postIf.Cond) {
				allowed++
			}
		}
		uses := countIdent(d.Routine().Body, nName)
		for _, f := range d.Funcs() {
			uses += countIdent(f.Body, nName)
		}
		if uses != allowed {
			return nil, errPrecond(name, "in-place countdown needs every use of %s to be a rewritten limit test (have %d uses, can rewrite %d)", nName, uses, allowed)
		}
	}
	// Rewrite. Insert len <- len - 1 right after the step; replace the exit
	// condition; then (fresh mode) insert len <- n after i's init; finally
	// rewrite the post-loop conditional if it tests the limit.
	width := 0
	if r := d.Reg(nName); r != nil {
		width = r.Width
	}
	lenZero := &isps.Bin{Op: isps.OpEq, X: &isps.Ident{Name: lenName}, Y: &isps.Num{Val: 0}}
	body := make([]isps.Stmt, 0, len(sh.body.Stmts)+1)
	for i, st := range sh.body.Stmts {
		if i == exitAt {
			st = &isps.ExitWhenStmt{Cond: lenZero}
		}
		body = append(body, st)
		if i == stepIdx {
			body = append(body, &isps.AssignStmt{
				LHS: &isps.Ident{Name: lenName},
				RHS: &isps.Bin{Op: isps.OpSub, X: &isps.Ident{Name: lenName}, Y: &isps.Num{Val: 1}},
			})
		}
	}
	blk := make([]isps.Stmt, 0, len(sh.blk.Stmts)+1)
	for i, st := range sh.blk.Stmts {
		switch i {
		case sh.idx:
			st = &isps.RepeatStmt{Body: &isps.Block{Stmts: body}}
		case sh.idx + 1:
			if postIf, ok := st.(*isps.IfStmt); ok && isLimitTest(postIf.Cond) {
				st = &isps.IfStmt{Cond: lenZero, Then: postIf.Then, Else: postIf.Else}
			}
		}
		blk = append(blk, st)
		if i == init && !inPlace {
			blk = append(blk, &isps.AssignStmt{
				LHS: &isps.Ident{Name: lenName},
				RHS: &isps.Ident{Name: nName},
			})
		}
	}
	nd, err := d.ReplaceAtDesc(sh.blkPath, &isps.Block{Stmts: blk})
	if err == nil && !inPlace {
		nd, err = withRegDecl(nd, lenName, width, "countdown paired with "+iName)
	}
	if err != nil {
		return nil, err
	}
	return &Outcome{Desc: nd, Note: fmt.Sprintf("introduced countdown %s = %s - %s", lenName, nName, iName)}, nil
}

func applyInductionIndex(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
	const name = "loop.induction.index"
	pName, err := args.Str("p")
	if err != nil {
		return nil, err
	}
	iName, err := args.Str("i")
	if err != nil {
		return nil, err
	}
	if !isps.NameFree(d, iName) {
		return nil, errPrecond(name, "index name %q is already in use", iName)
	}
	sh, err := analyzeLoop(d, at)
	if err != nil {
		return nil, err
	}
	funcs := dataflow.FuncMap(d)
	// The loop must contain the only non-input definition of p in the
	// routine, and it must be a single top-level `p <- p + 1`.
	stepIdx := -1
	for i, s := range sh.body.Stmts {
		if v, st, ok := stepAssign(s); ok && v == pName {
			if st != 1 || stepIdx >= 0 {
				return nil, errPrecond(name, "%s must be stepped exactly once by +1", pName)
			}
			stepIdx = i
		} else if dataflow.MayDefine(s, pName, funcs) {
			return nil, errPrecond(name, "%s has a non-step definition inside the loop", pName)
		}
	}
	if stepIdx < 0 {
		return nil, errPrecond(name, "%s is not stepped in the loop", pName)
	}
	_, body, err := routineBody(d)
	if err != nil {
		return nil, err
	}
	defs := 0
	isps.Visit(body, func(n isps.Node) bool {
		switch x := n.(type) {
		case *isps.AssignStmt:
			if id, ok := x.LHS.(*isps.Ident); ok && id.Name == pName {
				defs++
			}
		}
		return true
	})
	if defs != 1 {
		return nil, errPrecond(name, "%s is assigned %d times in the routine; only the in-loop step is allowed", pName, defs)
	}
	// Functions must not touch p either (inline calls first).
	for _, f := range d.Funcs() {
		if dataflow.MayDefine(f.Body, pName, funcs) {
			return nil, errPrecond(name, "function %s writes %s; inline it first", f.Name, pName)
		}
	}
	width := 0
	if w, werr := args.Int("width"); werr == nil {
		width = w
	} else if r := d.Reg(pName); r != nil {
		width = r.Width
	}
	// Replace the step with the index step, then substitute p -> (p + i)
	// in the loop body and everything after the loop in its block.
	loopBody := append([]isps.Stmt(nil), sh.body.Stmts...)
	loopBody[stepIdx] = &isps.AssignStmt{
		LHS: &isps.Ident{Name: iName},
		RHS: &isps.Bin{Op: isps.OpAdd, X: &isps.Ident{Name: iName}, Y: &isps.Num{Val: 1}},
	}
	repl := &isps.Bin{Op: isps.OpAdd, X: &isps.Ident{Name: pName}, Y: &isps.Ident{Name: iName}}
	edits := 2 // the replaced step and the inserted initialization
	newLoop, n, ok := substitute(&isps.RepeatStmt{Body: &isps.Block{Stmts: loopBody}}, pName, repl)
	if !ok {
		return nil, errPrecond(name, "%s appears as an assignment target after the step removal", pName)
	}
	edits += n
	blk := make([]isps.Stmt, 0, len(sh.blk.Stmts)+1)
	blk = append(blk, sh.blk.Stmts[:sh.idx]...)
	blk = append(blk, &isps.AssignStmt{LHS: &isps.Ident{Name: iName}, RHS: &isps.Num{Val: 0}}, newLoop.(isps.Stmt))
	for _, st := range sh.blk.Stmts[sh.idx+1:] {
		ns, n, ok := substitute(st, pName, repl)
		if !ok {
			return nil, errPrecond(name, "%s appears as an assignment target after the loop", pName)
		}
		edits += n
		blk = append(blk, ns.(isps.Stmt))
	}
	nd, err := d.ReplaceAtDesc(sh.blkPath, &isps.Block{Stmts: blk})
	if err == nil {
		nd, err = withRegDecl(nd, iName, width, "index induction variable for "+pName)
	}
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Desc:     nd,
		Rewrites: edits,
		Note:     fmt.Sprintf("rewrote pointer %s as %s + %s (assumes the string does not wrap the address space)", pName, pName, iName),
	}, nil
}

func applyInductionMerge(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
	const name = "loop.induction.merge"
	keep, err := args.Str("keep")
	if err != nil {
		return nil, err
	}
	drop, err := args.Str("drop")
	if err != nil {
		return nil, err
	}
	sh, err := analyzeLoop(d, at)
	if err != nil {
		return nil, err
	}
	funcs := dataflow.FuncMap(d)
	for _, in := range d.Inputs() {
		if in == drop {
			return nil, errPrecond(name, "%s is an input operand and cannot be merged away", drop)
		}
	}
	findStep := func(v string) (int, int64, error) {
		idx, step := -1, int64(0)
		for i, s := range sh.body.Stmts {
			if name2, st, ok := stepAssign(s); ok && name2 == v {
				if idx >= 0 {
					return -1, 0, fmt.Errorf("%s stepped more than once", v)
				}
				idx, step = i, st
			} else if dataflow.MayDefine(s, v, funcs) {
				return -1, 0, fmt.Errorf("%s has a non-step definition in the loop", v)
			}
		}
		if idx < 0 {
			return -1, 0, fmt.Errorf("%s is not stepped in the loop", v)
		}
		return idx, step, nil
	}
	ki, kstep, err := findStep(keep)
	if err != nil {
		return nil, errPrecond(name, "%v", err)
	}
	di, dstep, err := findStep(drop)
	if err != nil {
		return nil, errPrecond(name, "%v", err)
	}
	if kstep != dstep {
		return nil, errPrecond(name, "steps differ: %s by %d, %s by %d", keep, kstep, drop, dstep)
	}
	if di != ki+1 && di != ki-1 {
		return nil, errPrecond(name, "steps of %s and %s are not adjacent", keep, drop)
	}
	// Matching initializations to the same constant, unmodified up to the
	// loop.
	findInit := func(v string) (int, int64, error) {
		for i := sh.idx - 1; i >= 0; i-- {
			s := sh.blk.Stmts[i]
			if a, ok := s.(*isps.AssignStmt); ok {
				if id, ok := a.LHS.(*isps.Ident); ok && id.Name == v {
					if n, isNum := numVal(a.RHS); isNum {
						return i, n, nil
					}
					return -1, 0, fmt.Errorf("%s initialized to a non-constant", v)
				}
			}
			if dataflow.MayDefine(s, v, funcs) {
				return -1, 0, fmt.Errorf("%s modified before the loop without a plain initialization", v)
			}
		}
		return -1, 0, fmt.Errorf("%s has no initialization before the loop", v)
	}
	_, kval, err := findInit(keep)
	if err != nil {
		return nil, errPrecond(name, "%v", err)
	}
	dInitIdx, dval, err := findInit(drop)
	if err != nil {
		return nil, errPrecond(name, "%v", err)
	}
	if kval != dval {
		return nil, errPrecond(name, "initial values differ: %d vs %d", kval, dval)
	}
	// Rewrite: delete drop's step and init, substitute drop -> keep in the
	// loop and everything after it. Renaming to an identifier cannot fail.
	edits := 2 // the deleted step and initialization
	kept := &isps.Ident{Name: keep}
	loopBody := make([]isps.Stmt, 0, len(sh.body.Stmts)-1)
	loopBody = append(loopBody, sh.body.Stmts[:di]...)
	loopBody = append(loopBody, sh.body.Stmts[di+1:]...)
	newLoop, n, _ := substitute(&isps.RepeatStmt{Body: &isps.Block{Stmts: loopBody}}, drop, kept)
	edits += n
	blk := make([]isps.Stmt, 0, len(sh.blk.Stmts)-1)
	blk = append(blk, sh.blk.Stmts[:dInitIdx]...)
	blk = append(blk, sh.blk.Stmts[dInitIdx+1:sh.idx]...)
	blk = append(blk, newLoop.(isps.Stmt))
	for _, st := range sh.blk.Stmts[sh.idx+1:] {
		ns, n, _ := substitute(st, drop, kept)
		edits += n
		blk = append(blk, ns.(isps.Stmt))
	}
	nd, err := d.ReplaceAtDesc(sh.blkPath, &isps.Block{Stmts: blk})
	if err == nil && !dataflow.UsesName(nd, drop) {
		nd, err = withoutRegDecl(nd, drop)
	}
	if err != nil {
		return nil, err
	}
	return &Outcome{Desc: nd, Rewrites: edits,
		Note: fmt.Sprintf("merged induction variable %s into %s", drop, keep)}, nil
}

func applyRotateGuarded(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
	const name = "loop.rotate.guarded"
	blk, parentPath, idx, err := resolveStmtIndex(d, at)
	if err != nil {
		return nil, err
	}
	ifs, ok := blk.Stmts[idx].(*isps.IfStmt)
	if !ok {
		return nil, errPrecond(name, "path %s is not a conditional", at)
	}
	if len(ifs.Else.Stmts) != 0 {
		return nil, errPrecond(name, "guard has an else branch")
	}
	if len(ifs.Then.Stmts) != 1 {
		return nil, errPrecond(name, "guard body is not a single loop")
	}
	loop, ok := ifs.Then.Stmts[0].(*isps.RepeatStmt)
	if !ok {
		return nil, errPrecond(name, "guard body is not a repeat loop")
	}
	if len(loop.Body.Stmts) == 0 {
		return nil, errPrecond(name, "loop body is empty")
	}
	last, ok := loop.Body.Stmts[len(loop.Body.Stmts)-1].(*isps.ExitWhenStmt)
	if !ok {
		return nil, errPrecond(name, "loop does not end with an exit_when")
	}
	exits := 0
	isps.Visit(loop.Body, func(n isps.Node) bool {
		if _, isExit := n.(*isps.ExitWhenStmt); isExit {
			exits++
		}
		if _, isLoop := n.(*isps.RepeatStmt); isLoop {
			return false
		}
		return true
	})
	if exits != 1 {
		return nil, errPrecond(name, "loop has %d exits, want exactly the bottom test", exits)
	}
	if !negEquiv(ifs.Cond, last.Cond) {
		return nil, errPrecond(name, "exit condition %s is not the negation of the guard %s",
			exprText{last.Cond}, exprText{ifs.Cond})
	}
	if !pureExpr(ifs.Cond) || !pureExpr(last.Cond) {
		return nil, errPrecond(name, "guard or exit condition has side effects")
	}
	newBody := append([]isps.Stmt{&isps.ExitWhenStmt{Cond: last.Cond}},
		loop.Body.Stmts[:len(loop.Body.Stmts)-1]...)
	rotated := &isps.RepeatStmt{Body: &isps.Block{Stmts: newBody}}
	nd, err := d.SpliceAtDesc(parentPath, idx, 1, rotated)
	if err != nil {
		return nil, err
	}
	return &Outcome{Desc: nd, Note: "rotated guarded bottom-test loop into top-test form"}, nil
}

func applyDoWhileCount(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
	const name = "loop.dowhile.count"
	kName, err := args.Str("k")
	if err != nil {
		return nil, err
	}
	nName, err := args.Str("n")
	if err != nil {
		return nil, err
	}
	sh, err := analyzeLoop(d, at)
	if err != nil {
		return nil, err
	}
	funcs := dataflow.FuncMap(d)
	nb := len(sh.body.Stmts)
	if nb < 2 {
		return nil, errPrecond(name, "loop body too short")
	}
	ex, ok := sh.body.Stmts[nb-2].(*isps.ExitWhenStmt)
	if !ok {
		return nil, errPrecond(name, "second-to-last statement is not an exit_when")
	}
	wantExit := &isps.Bin{Op: isps.OpEq, X: &isps.Ident{Name: kName}, Y: &isps.Num{Val: 0}}
	if !isps.Equal(ex.Cond, wantExit) {
		return nil, errPrecond(name, "exit condition is not (%s = 0)", kName)
	}
	if v, st, ok := stepAssign(sh.body.Stmts[nb-1]); !ok || v != kName || st != -1 {
		return nil, errPrecond(name, "last statement is not %s <- %s - 1", kName, kName)
	}
	if len(sh.exitIdxs) == 0 || sh.exitIdxs[len(sh.exitIdxs)-1] != nb-2 {
		return nil, errPrecond(name, "the bottom count test is not the loop's last exit")
	}
	prefix := &isps.Block{Stmts: sh.body.Stmts[:nb-2]}
	eff := dataflow.NodeEffects(prefix, funcs)
	if eff.MayUse[kName] || eff.MayDef[kName] || eff.MayUse[nName] || eff.MayDef[nName] {
		return nil, errPrecond(name, "loop prefix touches %s or %s", kName, nName)
	}
	// The preceding statement must be k <- n - 1.
	if sh.idx == 0 {
		return nil, errPrecond(name, "no statement precedes the loop")
	}
	pre, ok := sh.blk.Stmts[sh.idx-1].(*isps.AssignStmt)
	wantPre := &isps.AssignStmt{
		LHS: &isps.Ident{Name: kName},
		RHS: &isps.Bin{Op: isps.OpSub, X: &isps.Ident{Name: nName}, Y: &isps.Num{Val: 1}},
	}
	if !ok || !isps.Equal(pre, wantPre) {
		return nil, errPrecond(name, "statement before the loop is not %s <- %s - 1", kName, nName)
	}
	// k and n dead after the loop.
	g, rel, err := routineCFG(d, sh.loopPath)
	if err != nil {
		return nil, err
	}
	for _, v := range []string{kName, nName} {
		live, lerr := g.LiveAtLoopExit(rel, v)
		if lerr != nil {
			return nil, lerr
		}
		if live {
			return nil, errPrecond(name, "%s is live after the loop", v)
		}
	}
	kWidth := 64
	if r := d.Reg(kName); r != nil && r.Width > 0 {
		kWidth = r.Width
	}
	// Rewrite: drop the preload, re-shape the loop to a top test over n.
	newBody := append([]isps.Stmt{&isps.ExitWhenStmt{
		Cond: &isps.Bin{Op: isps.OpEq, X: &isps.Ident{Name: nName}, Y: &isps.Num{Val: 0}},
	}}, prefix.Stmts...)
	newBody = append(newBody, &isps.AssignStmt{
		LHS: &isps.Ident{Name: nName},
		RHS: &isps.Bin{Op: isps.OpSub, X: &isps.Ident{Name: nName}, Y: &isps.Num{Val: 1}},
	})
	nd, err := d.SpliceAtDesc(sh.blkPath, sh.idx-1, 2, &isps.RepeatStmt{Body: &isps.Block{Stmts: newBody}})
	if err == nil && !dataflow.UsesName(nd, kName) {
		nd, err = withoutRegDecl(nd, kName)
	}
	if err != nil {
		return nil, err
	}
	max := uint64(1) << uint(kWidth)
	if kWidth >= 64 {
		max = ^uint64(0)
	}
	cons := constraint.NewRange(nName, 1, max,
		fmt.Sprintf("the counted loop runs %s times only when %s >= 1, and %s - 1 must fit the %d-bit count field", nName, nName, nName, kWidth))
	return &Outcome{
		Desc:        nd,
		Constraints: []constraint.Constraint{cons},
		Note:        fmt.Sprintf("converted k+1-times bottom-test loop into %s-times top-test loop", nName),
	}, nil
}

func applyReverseCopy(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
	const name = "loop.reverse.copy"
	lenName, err := args.Str("len")
	if err != nil {
		return nil, err
	}
	srcName, err := args.Str("src")
	if err != nil {
		return nil, err
	}
	dstName, err := args.Str("dst")
	if err != nil {
		return nil, err
	}
	blk, parentPath, idx, err := resolveStmtIndex(d, at)
	if err != nil {
		return nil, err
	}
	ifs, ok := blk.Stmts[idx].(*isps.IfStmt)
	if !ok {
		return nil, errPrecond(name, "path %s is not a conditional", at)
	}
	if !pureExpr(ifs.Cond) {
		return nil, errPrecond(name, "direction test has side effects")
	}
	backward, err := isps.ParseStmts(fmt.Sprintf(`
		%[2]s <- %[2]s + %[1]s;
		%[3]s <- %[3]s + %[1]s;
		repeat
			exit_when (%[1]s = 0);
			%[2]s <- %[2]s - 1;
			%[3]s <- %[3]s - 1;
			Mb[%[3]s] <- Mb[%[2]s];
			%[1]s <- %[1]s - 1;
		end_repeat;`, lenName, srcName, dstName))
	if err != nil {
		return nil, err
	}
	forward, err := isps.ParseStmts(fmt.Sprintf(`
		repeat
			exit_when (%[1]s = 0);
			Mb[%[3]s] <- Mb[%[2]s];
			%[2]s <- %[2]s + 1;
			%[3]s <- %[3]s + 1;
			%[1]s <- %[1]s - 1;
		end_repeat;`, lenName, srcName, dstName))
	if err != nil {
		return nil, err
	}
	if !isps.Equal(ifs.Then, &isps.Block{Stmts: backward}) {
		return nil, errPrecond(name, "then-branch is not the canonical backward copy of %s bytes from %s to %s", lenName, srcName, dstName)
	}
	if !isps.Equal(ifs.Else, &isps.Block{Stmts: forward}) {
		return nil, errPrecond(name, "else-branch is not the canonical forward copy")
	}
	// The final pointer values differ between directions, so they must be
	// dead after the conditional.
	g, rel, err := routineCFG(d, at)
	if err != nil {
		return nil, err
	}
	for _, v := range []string{srcName, dstName} {
		isLive, lerr := g.LiveAtStmtExit(rel, v)
		if lerr != nil {
			return nil, lerr
		}
		if isLive {
			return nil, errPrecond(name, "%s is live after the copy; the directions leave different values", v)
		}
	}
	nd, err := d.SpliceAtDesc(parentPath, idx, 1, forward...)
	if err != nil {
		return nil, err
	}
	pred := fmt.Sprintf("(%[2]s + %[1]s <= %[3]s) or (%[3]s + %[1]s <= %[2]s)", lenName, srcName, dstName)
	cons := constraint.NewPredicate(pred,
		"the forward and backward copies agree only when the strings do not overlap (paper section 4.3)")
	return &Outcome{
		Desc:        nd,
		Constraints: []constraint.Constraint{cons},
		Note:        "collapsed overlap-guarded copy to the forward loop under a no-overlap predicate",
	}, nil
}
