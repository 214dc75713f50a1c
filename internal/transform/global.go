package transform

import (
	"fmt"

	"extra/internal/dataflow"
	"extra/internal/isps"
)

// topLevelDef locates the single definition of v: it must be a top-level
// statement of the routine body assigning to v, v must have no other
// assignment anywhere (routine or functions), and no call may occur in the
// statements preceding it (so the definition dominates every use, including
// uses inside function bodies, whose call sites all come later).
func topLevelDef(d *isps.Description, v string) (int, *isps.AssignStmt, error) {
	_, body, err := routineBody(d)
	if err != nil {
		return 0, nil, err
	}
	defIdx, defs := -1, 0
	var def *isps.AssignStmt
	countDefs := func(root isps.Node) {
		isps.Visit(root, func(n isps.Node) bool {
			if a, ok := n.(*isps.AssignStmt); ok {
				if id, ok := a.LHS.(*isps.Ident); ok && id.Name == v {
					defs++
				}
			}
			return true
		})
	}
	countDefs(body)
	for _, f := range d.Funcs() {
		countDefs(f.Body)
	}
	for i, s := range body.Stmts {
		if a, ok := s.(*isps.AssignStmt); ok {
			if id, ok := a.LHS.(*isps.Ident); ok && id.Name == v {
				defIdx, def = i, a
				break
			}
		}
	}
	if defIdx < 0 {
		return 0, nil, fmt.Errorf("%s has no top-level definition in the routine", v)
	}
	if defs != 1 {
		return 0, nil, fmt.Errorf("%s is assigned %d times; propagation needs a single definition", v, defs)
	}
	for i := 0; i < defIdx; i++ {
		if dataflow.HasCalls(body.Stmts[i]) {
			return 0, nil, fmt.Errorf("a call occurs before %s's definition; function-body uses would not be dominated", v)
		}
	}
	return defIdx, def, nil
}

// propagate returns d with the uses of v replaced by repl in the routine
// statements after index defIdx and in all function bodies, and the
// replacement count.
func propagate(d *isps.Description, defIdx int, v string, repl isps.Expr) (*isps.Description, int, error) {
	bodyPath, body, err := routineBody(d)
	if err != nil {
		return nil, 0, err
	}
	total := 0
	stmts := append([]isps.Stmt(nil), body.Stmts...)
	for i := defIdx + 1; i < len(stmts); i++ {
		s, n, ok := substitute(stmts[i], v, repl)
		if !ok {
			return nil, 0, fmt.Errorf("%s appears as an assignment target after its definition", v)
		}
		stmts[i] = s.(isps.Stmt)
		total += n
	}
	nd, err := d.ReplaceAtDesc(bodyPath, &isps.Block{Stmts: stmts})
	if err != nil {
		return nil, 0, err
	}
	for si, sec := range d.Sections {
		for di, dec := range sec.Decls {
			f, ok := dec.(*isps.FuncDecl)
			if !ok {
				continue
			}
			nb, n, ok := substitute(f.Body, v, repl)
			if !ok {
				return nil, 0, fmt.Errorf("%s appears as an assignment target inside function %s", v, f.Name)
			}
			if n > 0 {
				if nd, err = nd.ReplaceAtDesc(isps.Path{si, di, 0}, nb); err != nil {
					return nil, 0, err
				}
			}
			total += n
		}
	}
	return nd, total, nil
}

func init() {
	register(&Transformation{
		Name:     "global.const.prop",
		Category: Global,
		Effect:   Preserving,
		Doc: "Propagate a constant: a variable with a single definition " +
			"`v <- c` at the top level of the routine replaces every later " +
			"use (including uses inside functions, all of whose call sites " +
			"come after the definition). The definition itself remains for " +
			"global.dead.assign to collect. Args: var.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			v, err := args.Str("var")
			if err != nil {
				return nil, err
			}
			defIdx, def, err := topLevelDef(d, v)
			if err != nil {
				return nil, errPrecond("global.const.prop", "%v", err)
			}
			num, ok := def.RHS.(*isps.Num)
			if !ok {
				return nil, errPrecond("global.const.prop", "%s's definition is not a constant", v)
			}
			nd, n, err := propagate(d, defIdx, v, num)
			if err != nil {
				return nil, errPrecond("global.const.prop", "%v", err)
			}
			return &Outcome{Desc: nd, Rewrites: n,
				Note: fmt.Sprintf("propagated %s = %d to %d uses", v, num.Val, n)}, nil
		},
	})

	register(&Transformation{
		Name:     "global.copy.prop",
		Category: Global,
		Effect:   Preserving,
		Doc: "Propagate a copy: a variable with a single definition `v <- w` " +
			"(w a register never written after that point) replaces every " +
			"later use of v by w. Args: var.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			v, err := args.Str("var")
			if err != nil {
				return nil, err
			}
			defIdx, def, err := topLevelDef(d, v)
			if err != nil {
				return nil, errPrecond("global.copy.prop", "%v", err)
			}
			w, ok := def.RHS.(*isps.Ident)
			if !ok {
				return nil, errPrecond("global.copy.prop", "%s's definition is not a plain copy", v)
			}
			// w must not be written after the copy, anywhere.
			_, body, err := routineBody(d)
			if err != nil {
				return nil, err
			}
			funcs := dataflow.FuncMap(d)
			for i := defIdx + 1; i < len(body.Stmts); i++ {
				if dataflow.MayDefine(body.Stmts[i], w.Name, funcs) {
					return nil, errPrecond("global.copy.prop", "%s is written after the copy; v and w diverge", w.Name)
				}
			}
			for _, f := range d.Funcs() {
				if dataflow.MayDefine(f.Body, w.Name, funcs) {
					return nil, errPrecond("global.copy.prop", "function %s writes %s", f.Name, w.Name)
				}
			}
			// The copied-from register must also have the same width or
			// wider truncation behaviour; identical widths keep it simple.
			rv, rw := d.Reg(v), d.Reg(w.Name)
			if rv != nil && rw != nil && rv.Width != 0 && rv.Width != rw.Width {
				return nil, errPrecond("global.copy.prop", "widths of %s and %s differ; the copy truncates", v, w.Name)
			}
			nd, n, err := propagate(d, defIdx, v, w)
			if err != nil {
				return nil, errPrecond("global.copy.prop", "%v", err)
			}
			return &Outcome{Desc: nd, Rewrites: n,
				Note: fmt.Sprintf("propagated copy %s = %s to %d uses", v, w.Name, n)}, nil
		},
	})

	register(&Transformation{
		Name:     "global.dead.assign",
		Category: Global,
		Effect:   Preserving,
		Doc: "Delete an assignment whose register target is never read " +
			"afterwards; the right-hand side must be call free.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			blk, parentPath, idx, err := resolveStmtIndex(d, at)
			if err != nil {
				return nil, err
			}
			asn, ok := blk.Stmts[idx].(*isps.AssignStmt)
			if !ok {
				return nil, errPrecond("global.dead.assign", "path %s is not an assignment", at)
			}
			lhs, ok := asn.LHS.(*isps.Ident)
			if !ok {
				return nil, errPrecond("global.dead.assign", "memory writes are never dead")
			}
			if dataflow.HasCalls(asn.RHS) {
				return nil, errPrecond("global.dead.assign", "right-hand side has side effects")
			}
			g, rel, err := routineCFG(d, at)
			live := false
			if err == nil {
				live, err = g.LiveAfter(rel, lhs.Name)
			}
			if err != nil {
				// The statement may sit inside a function body; functions
				// have no CFG of their own, so refuse.
				return nil, errPrecond("global.dead.assign", "%v", err)
			}
			if live {
				return nil, errPrecond("global.dead.assign", "%s is live after the assignment", lhs.Name)
			}
			nd, err := d.SpliceAtDesc(parentPath, idx, 1)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "deleted dead assignment to " + lhs.Name}, nil
		},
	})

	register(&Transformation{
		Name:     "global.dead.decl",
		Category: Global,
		Effect:   Preserving,
		Doc:      "Delete the declaration of a register that occurs nowhere in the description. Args: var.",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			v, err := args.Str("var")
			if err != nil {
				return nil, err
			}
			if d.Reg(v) == nil {
				return nil, errPrecond("global.dead.decl", "%s is not a declared register", v)
			}
			if usedAnywhere(d, v) {
				return nil, errPrecond("global.dead.decl", "%s is still used", v)
			}
			nd, err := withoutRegDecl(d, v)
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: "deleted unused declaration of " + v}, nil
		},
	})

	register(&Transformation{
		Name:     "global.rename",
		Category: Global,
		Effect:   Preserving,
		Doc:      "Rename a register throughout the description. Args: from, to (fresh).",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			from, err := args.Str("from")
			if err != nil {
				return nil, err
			}
			to, err := args.Str("to")
			if err != nil {
				return nil, err
			}
			if !isps.NameFree(d, to) {
				return nil, errPrecond("global.rename", "name %q is already in use", to)
			}
			si, di, reg := regDeclAt(d, from)
			if reg == nil {
				return nil, errPrecond("global.rename", "%s is not a declared register", from)
			}
			// Idents, calls and input operands are renamed; declaration
			// names are not, except the register's own.
			renamed, err := isps.Rewrite(d, func(n isps.Node) (isps.Node, bool) {
				switch x := n.(type) {
				case *isps.Ident:
					if x.Name == from {
						return &isps.Ident{Name: to}, true
					}
				case *isps.Call:
					if x.Name == from {
						return &isps.Call{Name: to}, true
					}
				case *isps.InputStmt:
					var names []string
					for i, nm := range x.Names {
						if nm == from {
							if names == nil {
								names = append([]string(nil), x.Names...)
							}
							names[i] = to
						}
					}
					if names != nil {
						return &isps.InputStmt{Names: names}, true
					}
				}
				return nil, false
			})
			if err != nil {
				return nil, err
			}
			nd, err := spliceDecls(renamed.(*isps.Description), si, di, 1,
				&isps.RegDecl{Name: to, Width: reg.Width, Comment: reg.Comment})
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Note: fmt.Sprintf("renamed %s to %s", from, to)}, nil
		},
	})

	register(&Transformation{
		Name:     "global.flag.invert",
		Category: Global,
		Effect:   Preserving,
		Doc: "Replace a flag by its complement: a register assigned only the " +
			"constants 0 and 1 is replaced by a fresh flag with inverted " +
			"assignments, and every read becomes `not g`. Used to align a " +
			"zero-flag (set on equality) with a mismatch witness. " +
			"Args: flag, to (fresh).",
		Apply: func(d *isps.Description, at isps.Path, args Args) (*Outcome, error) {
			f, err := args.Str("flag")
			if err != nil {
				return nil, err
			}
			g, err := args.Str("to")
			if err != nil {
				return nil, err
			}
			if !isps.NameFree(d, g) {
				return nil, errPrecond("global.flag.invert", "name %q is already in use", g)
			}
			si, di, reg := regDeclAt(d, f)
			if reg == nil {
				return nil, errPrecond("global.flag.invert", "%s is not a declared register", f)
			}
			for _, in := range d.Inputs() {
				if in == f {
					return nil, errPrecond("global.flag.invert", "%s is an input operand; fix or augment it first", f)
				}
			}
			// Every assignment must set a constant 0 or 1.
			okAll := true
			isps.Visit(d, func(n isps.Node) bool {
				if a, isAsn := n.(*isps.AssignStmt); isAsn {
					if id, isID := a.LHS.(*isps.Ident); isID && id.Name == f {
						if v, isNum := numVal(a.RHS); !isNum || (v != 0 && v != 1) {
							okAll = false
						}
					}
				}
				return okAll
			})
			if !okAll {
				return nil, errPrecond("global.flag.invert", "%s is assigned a non-constant value", f)
			}
			// Invert assignments, wrap reads.
			edits := 0
			inverted, err := isps.Rewrite(d, func(n isps.Node) (isps.Node, bool) {
				switch x := n.(type) {
				case *isps.AssignStmt:
					if id, isID := x.LHS.(*isps.Ident); isID && id.Name == f {
						edits++
						v, _ := numVal(x.RHS)
						return &isps.AssignStmt{LHS: &isps.Ident{Name: g}, RHS: &isps.Num{Val: 1 - v}}, true
					}
				case *isps.Ident:
					if x.Name == f {
						edits++
						return &isps.Un{Op: isps.OpNot, X: &isps.Ident{Name: g}}, true
					}
				}
				return nil, false
			})
			if err != nil {
				return nil, err
			}
			nd, err := spliceDecls(inverted.(*isps.Description), si, di, 1,
				&isps.RegDecl{Name: g, Width: reg.Width, Comment: "complement of the original flag"})
			if err != nil {
				return nil, err
			}
			return &Outcome{Desc: nd, Rewrites: edits,
				Note: fmt.Sprintf("replaced flag %s by its complement %s", f, g)}, nil
		},
	})
}

// usedAnywhere reports whether v occurs in any routine/function body or
// input list of the description.
func usedAnywhere(d *isps.Description, v string) bool {
	for _, f := range d.Funcs() {
		if dataflow.UsesName(f.Body, v) || mayAssign(f.Body, v) {
			return true
		}
	}
	r := d.Routine()
	return r != nil && (dataflow.UsesName(r.Body, v) || mayAssign(r.Body, v))
}

func mayAssign(n isps.Node, v string) bool {
	found := false
	isps.Visit(n, func(m isps.Node) bool {
		if a, ok := m.(*isps.AssignStmt); ok {
			if id, ok := a.LHS.(*isps.Ident); ok && id.Name == v {
				found = true
			}
		}
		return !found
	})
	return found
}
