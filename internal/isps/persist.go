package isps

import "fmt"

// Persistent updates: rebuild only the spine from the root to an edit
// point, sharing every off-spine subtree with the original. On an interned
// description a spine rebuild plus re-interning costs O(depth) node copies
// and O(depth) shallow hash folds per edit point. Every transformation
// builds its result this way (ReplaceAtDesc, SpliceAtDesc, or Rewrite for
// whole-subtree substitutions), so no rewrite copies or re-interns the
// parts of a description it leaves alone. Apart from InternOwned, which
// canonicalizes the children of nodes its caller owns, setChild is the only
// code that replaces a child of a built node, and it writes only into the
// fresh copies shallowCopy makes.

// shallowCopy returns an unfrozen copy of n, a node with children, sharing
// them. Slices are copied (fresh backing arrays) so that setChild on the
// copy never writes into an array a frozen node holds. Leaves are never
// copied: only the parent of a replaced child is.
func shallowCopy(n Node) Node {
	switch x := n.(type) {
	case *Description:
		return &Description{Name: x.Name, Sections: append([]*Section(nil), x.Sections...)}
	case *Section:
		return &Section{Name: x.Name, Decls: append([]Decl(nil), x.Decls...)}
	case *FuncDecl:
		return &FuncDecl{Name: x.Name, Width: x.Width, Comment: x.Comment, Body: x.Body}
	case *RoutineDecl:
		return &RoutineDecl{Name: x.Name, Body: x.Body}
	case *Block:
		return &Block{Stmts: append([]Stmt(nil), x.Stmts...)}
	case *AssignStmt:
		return &AssignStmt{LHS: x.LHS, RHS: x.RHS}
	case *IfStmt:
		return &IfStmt{Cond: x.Cond, Then: x.Then, Else: x.Else}
	case *RepeatStmt:
		return &RepeatStmt{Body: x.Body}
	case *ExitWhenStmt:
		return &ExitWhenStmt{Cond: x.Cond}
	case *OutputStmt:
		return &OutputStmt{Exprs: append([]Expr(nil), x.Exprs...)}
	case *AssertStmt:
		return &AssertStmt{Cond: x.Cond}
	case *Bin:
		return &Bin{Op: x.Op, X: x.X, Y: x.Y}
	case *Un:
		return &Un{Op: x.Op, X: x.X}
	case *Mem:
		return &Mem{Addr: x.Addr}
	}
	panic(fmt.Sprintf("isps: shallow copy of leaf %T", n))
}

// setChild writes c as the i-th child of n, a copy shallowCopy just made,
// after the caller has checked i against n.NumChildren(). A c of the wrong
// kind for that position is refused with a *NodeError wrapping
// ErrChildKind, and n, which then holds a nil child, must be dropped.
func setChild(n Node, i int, c Node) error {
	var ok bool
	switch x := n.(type) {
	case *Description:
		x.Sections[i], ok = c.(*Section)
	case *Section:
		x.Decls[i], ok = c.(Decl)
	case *FuncDecl:
		x.Body, ok = c.(*Block)
	case *RoutineDecl:
		x.Body, ok = c.(*Block)
	case *Block:
		x.Stmts[i], ok = c.(Stmt)
	case *AssignStmt:
		if i == 0 {
			x.LHS, ok = c.(Expr)
		} else {
			x.RHS, ok = c.(Expr)
		}
	case *IfStmt:
		switch i {
		case 0:
			x.Cond, ok = c.(Expr)
		case 1:
			x.Then, ok = c.(*Block)
		default:
			x.Else, ok = c.(*Block)
		}
	case *RepeatStmt:
		x.Body, ok = c.(*Block)
	case *ExitWhenStmt:
		x.Cond, ok = c.(Expr)
	case *OutputStmt:
		x.Exprs[i], ok = c.(Expr)
	case *AssertStmt:
		x.Cond, ok = c.(Expr)
	case *Bin:
		if i == 0 {
			x.X, ok = c.(Expr)
		} else {
			x.Y, ok = c.(Expr)
		}
	case *Un:
		x.X, ok = c.(Expr)
	case *Mem:
		x.Addr, ok = c.(Expr)
	}
	if !ok {
		return errKind(n, i, c)
	}
	return nil
}

// ReplaceAt returns a tree equal to root except that the node at path p is
// repl. The original tree is never mutated: the spine from the root down to
// p is shallow-copied and everything off the spine is shared. An empty path
// returns repl itself. A kind mismatch (a statement where an expression
// goes) is a *NodeError wrapping ErrChildKind.
func ReplaceAt(root Node, p Path, repl Node) (Node, error) {
	if len(p) == 0 {
		return repl, nil
	}
	spine := make([]Node, len(p))
	n := root
	for d, i := range p {
		if i < 0 || i >= n.NumChildren() {
			return nil, fmt.Errorf("isps: replace at %v: index %d out of range at depth %d (%T has %d children)",
				p, i, d, n, n.NumChildren())
		}
		spine[d] = n
		n = n.Child(i)
	}
	cur := repl
	for d := len(p) - 1; d >= 0; d-- {
		parent := shallowCopy(spine[d])
		if err := setChild(parent, p[d], cur); err != nil {
			return nil, err
		}
		cur = parent
	}
	return cur, nil
}

// ReplaceAtDesc is ReplaceAt with the concrete description type preserved.
func (d *Description) ReplaceAtDesc(p Path, repl Node) (*Description, error) {
	if len(p) == 0 {
		nd, ok := repl.(*Description)
		if !ok {
			return nil, fmt.Errorf("isps: replace at root: %T is not a description", repl)
		}
		return nd, nil
	}
	out, err := ReplaceAt(d, p, repl)
	if err != nil {
		return nil, err
	}
	return out.(*Description), nil
}

// SpliceAtDesc returns a description equal to d except that the block at
// blockPath has the del statements starting at idx replaced by repl. Like
// ReplaceAt it shares everything outside the rebuilt spine; the replacement
// block gets a fresh statement slice, so d's block is untouched.
func (d *Description) SpliceAtDesc(blockPath Path, idx, del int, repl ...Stmt) (*Description, error) {
	n, err := Resolve(d, blockPath)
	if err != nil {
		return nil, err
	}
	blk, ok := n.(*Block)
	if !ok {
		return nil, fmt.Errorf("isps: splice at %v: %T is not a block", blockPath, n)
	}
	if idx < 0 || del < 0 || idx+del > len(blk.Stmts) {
		return nil, fmt.Errorf("isps: splice at %v: range [%d,%d) out of bounds (block has %d statements)",
			blockPath, idx, idx+del, len(blk.Stmts))
	}
	out := make([]Stmt, 0, len(blk.Stmts)-del+len(repl))
	out = append(out, blk.Stmts[:idx]...)
	out = append(out, repl...)
	out = append(out, blk.Stmts[idx+del:]...)
	return d.ReplaceAtDesc(blockPath, &Block{Stmts: out})
}

// Rewrite returns root with every node for which fn reports a replacement
// swapped for that replacement. fn sees nodes in pre-order; the walk does
// not descend into a replaced node or into its replacement, so a
// replacement may mention what it replaces. The ancestors of each
// replacement are rebuilt bottom-up as shallow copies sharing every
// unchanged child, and a subtree with nothing replaced comes back as the
// same pointer, root included. root is never mutated, so it may be
// interned. A kind mismatch is a *NodeError wrapping ErrChildKind.
func Rewrite(root Node, fn func(Node) (Node, bool)) (Node, error) {
	if repl, ok := fn(root); ok {
		return repl, nil
	}
	var cp Node
	for i := 0; i < root.NumChildren(); i++ {
		c := root.Child(i)
		nc, err := Rewrite(c, fn)
		if err != nil {
			return nil, err
		}
		if nc == c {
			continue
		}
		if cp == nil {
			cp = shallowCopy(root)
		}
		if err := setChild(cp, i, nc); err != nil {
			return nil, err
		}
	}
	if cp == nil {
		return root, nil
	}
	return cp, nil
}
