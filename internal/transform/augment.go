package transform

import (
	"fmt"

	"extra/internal/isps"
)

func init() {
	register(&Transformation{
		Name:     "augment.prologue",
		Category: Augment,
		Effect:   Augmenting,
		Doc: "Add a prologue statement to the instruction, immediately after " +
			"its input statement (or after earlier prologue augments). When " +
			"the statement assigns an operand (e.g. `zf <- 0` in figure 5), " +
			"that operand leaves the input list: the generated code will " +
			"initialize it. Args: stmt (source text); optional decl and " +
			"width for a fresh temporary target (figure 5's `temp <- di`).",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			const name = "augment.prologue"
			src, err := args.Str("stmt")
			if err != nil {
				return nil, err
			}
			stmt, err := isps.ParseStmt(src)
			if err != nil {
				return nil, errPrecond(name, "bad augment statement: %v", err)
			}
			asn, ok := stmt.(*isps.AssignStmt)
			if !ok {
				return nil, errPrecond(name, "prologue augments are assignments; got %T", stmt)
			}
			bodyPath, idx, in, err := inputStmtInfo(d)
			if err != nil {
				return nil, err
			}
			var adaptor *InputAdaptor
			decl, width := "", 0
			if lhs, isIdent := asn.LHS.(*isps.Ident); isIdent {
				if decl = args["decl"]; decl != "" {
					if decl != lhs.Name {
						return nil, errPrecond(name, "decl %q does not match the augment target %q", decl, lhs.Name)
					}
					if !isps.NameFree(d, decl) {
						return nil, errPrecond(name, "temporary %q is already in use", decl)
					}
					if w, werr := args.Int("width"); werr == nil {
						width = w
					}
				} else if d.Reg(lhs.Name) == nil {
					return nil, errPrecond(name, "augment target %s is undeclared; pass decl/width to allocate it", lhs.Name)
				}
				// If the target is an input operand, the augment replaces
				// the preload: drop it from the input list.
				for i, n := range in.Names {
					if n == lhs.Name {
						rhsNum, isNum := asn.RHS.(*isps.Num)
						if !isNum {
							return nil, errPrecond(name, "augment reinitializes operand %s with a non-constant", lhs.Name)
						}
						adaptor = &InputAdaptor{Removed: lhs.Name, RemovedPos: i, RemovedVal: uint64(rhsNum.Val)}
						break
					}
				}
			}
			// Insert after input and after any earlier prologue statements
			// (assignments directly following input).
			body := d.Routine().Body
			pos := idx + 1
			for pos < len(body.Stmts) {
				if _, isAssign := body.Stmts[pos].(*isps.AssignStmt); isAssign {
					pos++
					continue
				}
				break
			}
			nd, err := d.SpliceAtDesc(bodyPath, pos, 0, stmt)
			if err == nil && adaptor != nil {
				nd, err = nd.ReplaceAtDesc(bodyPath.Child(idx), &isps.InputStmt{Names: without(in.Names, adaptor.RemovedPos)})
			}
			if err == nil && decl != "" {
				nd, err = withRegDecl(nd, decl, width, "new temporary")
			}
			if err != nil {
				return nil, err
			}
			return &Outcome{
				Desc:     nd,
				Prologue: []isps.Stmt{stmt},
				Adaptor:  adaptor,
				Note:     "prologue augment: " + src,
			}, nil
		},
	})

	register(&Transformation{
		Name:     "augment.epilogue",
		Category: Augment,
		Effect:   Augmenting,
		Doc: "Replace the instruction's output statement with epilogue code " +
			"that computes the operator's results (or with nothing, when the " +
			"operator produces no value and the instruction's register " +
			"results are simply not needed). Args: stmts (source text of the " +
			"replacement statements; empty to drop the outputs).",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			const name = "augment.epilogue"
			bodyPath, body, err := routineBody(d)
			if err != nil {
				return nil, err
			}
			outIdx := -1
			var out *isps.OutputStmt
			for i, s := range body.Stmts {
				if o, ok := s.(*isps.OutputStmt); ok {
					if outIdx >= 0 {
						return nil, errPrecond(name, "routine has multiple top-level output statements")
					}
					outIdx, out = i, o
				}
			}
			if outIdx < 0 {
				return nil, errPrecond(name, "routine has no top-level output statement to replace")
			}
			var repl []isps.Stmt
			if src := args["stmts"]; src != "" {
				repl, err = isps.ParseStmts(src)
				if err != nil {
					return nil, errPrecond(name, "bad epilogue: %v", err)
				}
				for _, s := range repl {
					if err := checkEpilogueStmt(s); err != nil {
						return nil, errPrecond(name, "%v", err)
					}
				}
			}
			nd, err := d.SpliceAtDesc(bodyPath, outIdx, 1, repl...)
			if err != nil {
				return nil, err
			}
			note := "epilogue augment"
			if len(repl) == 0 {
				note = "dropped instruction outputs (operator produces no value)"
			}
			return &Outcome{
				Desc:           nd,
				Epilogue:       repl,
				RemovedOutputs: append([]isps.Expr(nil), out.Exprs...),
				Note:           note,
			}, nil
		},
	})
}

// checkEpilogueStmt restricts epilogue augments to straight-line code and
// conditionals over existing state: assignments, outputs and if statements
// (no loops — an augment that loops would be doing the instruction's work).
func checkEpilogueStmt(s isps.Stmt) error {
	switch st := s.(type) {
	case *isps.AssignStmt, *isps.OutputStmt:
		return nil
	case *isps.IfStmt:
		for _, b := range []*isps.Block{st.Then, st.Else} {
			for _, inner := range b.Stmts {
				if err := checkEpilogueStmt(inner); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("epilogue may not contain %T (loops and i/o reads would change the instruction's character)", s)
	}
}
