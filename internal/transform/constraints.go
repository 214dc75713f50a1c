package transform

import (
	"fmt"

	"extra/internal/constraint"
	"extra/internal/isps"
)

func init() {
	register(&Transformation{
		Name:     "constraint.fix",
		Category: Constraint,
		Effect:   Simplifying,
		Doc: "Simplify the instruction by fixing an operand's value (paper " +
			"section 2): the operand leaves the input list and is assigned " +
			"the constant immediately after input. Emits the value " +
			"constraint the code generator must realize (e.g. df = 0 via " +
			"cld, rf = 1 via the rep prefix). Args: operand, value.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			const name = "constraint.fix"
			op, err := args.Str("operand")
			if err != nil {
				return nil, err
			}
			val, err := args.Int("value")
			if err != nil {
				return nil, err
			}
			bodyPath, idx, in, err := inputStmtInfo(d)
			if err != nil {
				return nil, err
			}
			pos := -1
			for i, n := range in.Names {
				if n == op {
					pos = i
					break
				}
			}
			if pos < 0 {
				return nil, errPrecond(name, "%s is not an input operand", op)
			}
			nd, err := d.SpliceAtDesc(bodyPath, idx, 1,
				&isps.InputStmt{Names: without(in.Names, pos)},
				&isps.AssignStmt{LHS: &isps.Ident{Name: op}, RHS: &isps.Num{Val: int64(val)}})
			if err != nil {
				return nil, err
			}
			return &Outcome{
				Desc: nd,
				Constraints: []constraint.Constraint{
					constraint.NewValue(op, uint64(val), "operand fixed by simplification"),
				},
				Adaptor: &InputAdaptor{Removed: op, RemovedPos: pos, RemovedVal: uint64(val)},
				Note:    fmt.Sprintf("fixed operand %s = %d", op, val),
			}, nil
		},
	})

	register(&Transformation{
		Name:     "constraint.offset",
		Category: Constraint,
		Effect:   Simplifying,
		Doc: "Introduce a coding constraint (paper section 4.2): the " +
			"instruction's operand is re-expressed as an abstract operand " +
			"plus a delta, and the compiler is directed to apply the delta " +
			"when loading the field (IBM 370 mvc stores length-1). The " +
			"operand is replaced in the input list by the abstract name, and " +
			"`operand <- abstract + delta` is integrated into the " +
			"description. Args: operand, abstract (fresh), delta.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			const name = "constraint.offset"
			op, err := args.Str("operand")
			if err != nil {
				return nil, err
			}
			abs, err := args.Str("abstract")
			if err != nil {
				return nil, err
			}
			delta, err := args.Int("delta")
			if err != nil {
				return nil, err
			}
			if delta == 0 {
				return nil, errPrecond(name, "a zero delta is not a coding constraint")
			}
			if !isps.NameFree(d, abs) {
				return nil, errPrecond(name, "abstract name %q is already in use", abs)
			}
			bodyPath, idx, in, err := inputStmtInfo(d)
			if err != nil {
				return nil, err
			}
			pos := -1
			for i, n := range in.Names {
				if n == op {
					pos = i
					break
				}
			}
			if pos < 0 {
				return nil, errPrecond(name, "%s is not an input operand", op)
			}
			names := append([]string(nil), in.Names...)
			names[pos] = abs
			opKind, amount := isps.OpAdd, int64(delta)
			if delta < 0 {
				opKind, amount = isps.OpSub, int64(-delta)
			}
			nd, err := d.SpliceAtDesc(bodyPath, idx, 1, &isps.InputStmt{Names: names}, &isps.AssignStmt{
				LHS: &isps.Ident{Name: op},
				RHS: &isps.Bin{Op: opKind, X: &isps.Ident{Name: abs}, Y: &isps.Num{Val: amount}},
			})
			if err == nil {
				nd, err = withRegDecl(nd, abs, 0, "abstract (unencoded) value of "+op)
			}
			if err != nil {
				return nil, err
			}
			width := 0
			if r := d.Reg(op); r != nil {
				width = r.Width
			}
			// The encoded value abstract+delta must fit the operand's field.
			var cons []constraint.Constraint
			cons = append(cons, constraint.NewOffset(abs, int64(delta),
				fmt.Sprintf("compiler loads %s%+d into the %s field", abs, delta, op)))
			if width > 0 && delta < 0 {
				lo := uint64(-delta)
				hi := (uint64(1) << uint(width)) - 1 + uint64(-delta)
				cons = append(cons, constraint.NewRange(abs, lo, hi,
					fmt.Sprintf("%s%+d must fit the %d-bit %s field", abs, delta, width, op)))
			}
			return &Outcome{
				Desc:        nd,
				Constraints: cons,
				Adaptor:     &InputAdaptor{Removed: op, RemovedPos: pos, Delta: int64(delta), Reencoded: true},
				Note:        fmt.Sprintf("re-encoded operand %s as %s%+d", op, abs, delta),
			}, nil
		},
	})

	register(&Transformation{
		Name:     "constraint.assert.range",
		Category: Constraint,
		Effect:   Preserving,
		Doc: "Record a range constraint on an operand and insert the matching " +
			"assertion after the input statement. Args: operand, min, max.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			const name = "constraint.assert.range"
			op, err := args.Str("operand")
			if err != nil {
				return nil, err
			}
			min, err := args.Int("min")
			if err != nil {
				return nil, err
			}
			max, err := args.Int("max")
			if err != nil {
				return nil, err
			}
			bodyPath, idx, in, err := inputStmtInfo(d)
			if err != nil {
				return nil, err
			}
			found := false
			for _, n := range in.Names {
				if n == op {
					found = true
				}
			}
			if !found {
				return nil, errPrecond(name, "%s is not an input operand", op)
			}
			cond := &isps.Bin{Op: isps.OpAnd,
				X: &isps.Bin{Op: isps.OpGe, X: &isps.Ident{Name: op}, Y: &isps.Num{Val: int64(min)}},
				Y: &isps.Bin{Op: isps.OpLe, X: &isps.Ident{Name: op}, Y: &isps.Num{Val: int64(max)}},
			}
			nd, err := d.SpliceAtDesc(bodyPath, idx+1, 0, &isps.AssertStmt{Cond: cond})
			if err != nil {
				return nil, err
			}
			return &Outcome{
				Desc: nd,
				Constraints: []constraint.Constraint{
					constraint.NewRange(op, uint64(min), uint64(max), "asserted operand range"),
				},
				Note: fmt.Sprintf("asserted %d <= %s <= %d", min, op, max),
			}, nil
		},
	})

	register(&Transformation{
		Name:     "constraint.assert.pred",
		Category: Constraint,
		Effect:   Preserving,
		Doc: "Record a multi-operand predicate constraint and insert the " +
			"matching assertion after the input statement. The paper's EXTRA " +
			"cannot represent these (section 4.3); only extended-mode " +
			"sessions accept the resulting constraint. Args: pred.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			const name = "constraint.assert.pred"
			pred, err := args.Str("pred")
			if err != nil {
				return nil, err
			}
			cond, err := isps.ParseExpr(pred)
			if err != nil {
				return nil, errPrecond(name, "bad predicate: %v", err)
			}
			bodyPath, idx, _, err := inputStmtInfo(d)
			if err != nil {
				return nil, err
			}
			nd, err := d.SpliceAtDesc(bodyPath, idx+1, 0, &isps.AssertStmt{Cond: cond})
			if err != nil {
				return nil, err
			}
			return &Outcome{
				Desc: nd,
				Constraints: []constraint.Constraint{
					constraint.NewPredicate(pred, "asserted source-language property"),
				},
				Note: "asserted predicate " + pred,
			}, nil
		},
	})

	register(&Transformation{
		Name:     "input.reorder",
		Category: Constraint,
		Effect:   Simplifying,
		Doc: "Permute the operator's operand list so it corresponds " +
			"positionally to the instruction's (the binding pairs operands by " +
			"position; which source expression feeds which operand is the " +
			"compiler's business, not the analysis's). Args: order " +
			"(comma-separated permutation of the current operand names).",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			const name = "input.reorder"
			orderStr, err := args.Str("order")
			if err != nil {
				return nil, err
			}
			var order []string
			for _, part := range splitComma(orderStr) {
				order = append(order, part)
			}
			bodyPath, idx, in, err := inputStmtInfo(d)
			if err != nil {
				return nil, err
			}
			if len(order) != len(in.Names) {
				return nil, errPrecond(name, "order lists %d operands, input has %d", len(order), len(in.Names))
			}
			perm := make([]int, len(order))
			used := make([]bool, len(in.Names))
			for i, want := range order {
				pos := -1
				for j, have := range in.Names {
					if have == want && !used[j] {
						pos = j
						break
					}
				}
				if pos < 0 {
					return nil, errPrecond(name, "%q is not an input operand (or repeated)", want)
				}
				used[pos] = true
				perm[i] = pos
			}
			nd, err := d.ReplaceAtDesc(bodyPath.Child(idx), &isps.InputStmt{Names: order})
			if err != nil {
				return nil, err
			}
			return &Outcome{
				Desc:    nd,
				Adaptor: &InputAdaptor{Perm: perm},
				Note:    "reordered operands to (" + orderStr + ")",
			}, nil
		},
	})

	register(&Transformation{
		Name:     "constraint.assert.remove",
		Category: Constraint,
		Effect:   Preserving,
		Doc: "Delete an assertion. The fact it asserted must already be " +
			"recorded as a constraint of the analysis; the session verifies " +
			"this, the transformation only removes the statement.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			as, ok := blk.Stmts[idx].(*isps.AssertStmt)
			if !ok {
				return nil, errPrecond("constraint.assert.remove", "path %s is not an assertion", at)
			}
			nd, err := d.SpliceAtDesc(parentPath, idx, 1)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "removed assertion " + isps.ExprString(as.Cond)}, nil
		},
	})
}
