package isps

import "sync"

// The interner hash-conses nodes: structurally equal subtrees intern to the
// same canonical pointer, keyed on the 128-bit structural digest. Canonical
// nodes are frozen (immutable) with their digest memoized, so
//
//   - Equal on two interned trees short-circuits on pointer identity,
//   - Hash answers from the memo instead of re-walking,
//   - the visited set and cache key cost a field read, and
//   - ReplaceAt shares every subtree off the edited spine.
//
// The table is sharded to keep lock contention off concurrent sessions
// (batch and discover workers, concurrent serve requests), and each shard
// is bounded: when it fills, the shard map is dropped and restarted.
// Dropping entries is safe — nodes already handed out stay frozen and
// valid; later interns of equal trees merely mint a fresh canonical
// pointer, losing sharing but never correctness (Equal falls back to
// structural comparison when pointers differ).

const (
	internShards   = 64
	internShardCap = 1 << 15 // nodes per shard before reset
)

type internShard struct {
	mu sync.Mutex
	m  map[Digest]Node
}

var interner [internShards]internShard

func internShardFor(d Digest) *internShard {
	return &interner[d.Lo&(internShards-1)]
}

// Intern returns the canonical frozen node structurally equal to n,
// interning a copy of it (and of every descendant) if none exists yet. The
// argument is never retained or mutated: callers keep full ownership of
// unfrozen trees they pass in (InternOwned is the entry point for trees the
// caller gives up).
func Intern(n Node) Node {
	if m := metaOf(n); m != nil && m.frozen() {
		return n
	}
	switch x := n.(type) {
	case *Description:
		c := &Description{Name: x.Name, Sections: make([]*Section, len(x.Sections))}
		for i, s := range x.Sections {
			c.Sections[i] = Intern(s).(*Section)
		}
		return canonicalize(c)
	case *Section:
		c := &Section{Name: x.Name, Decls: make([]Decl, len(x.Decls))}
		for i, d := range x.Decls {
			c.Decls[i] = Intern(d).(Decl)
		}
		return canonicalize(c)
	case *RegDecl:
		return canonicalize(&RegDecl{Name: x.Name, Width: x.Width, Comment: x.Comment})
	case *FuncDecl:
		return canonicalize(&FuncDecl{Name: x.Name, Width: x.Width, Comment: x.Comment,
			Body: Intern(x.Body).(*Block)})
	case *RoutineDecl:
		return canonicalize(&RoutineDecl{Name: x.Name, Body: Intern(x.Body).(*Block)})
	case *Block:
		c := &Block{Stmts: make([]Stmt, len(x.Stmts))}
		for i, s := range x.Stmts {
			c.Stmts[i] = Intern(s).(Stmt)
		}
		return canonicalize(c)
	case *AssignStmt:
		return canonicalize(&AssignStmt{LHS: Intern(x.LHS).(Expr), RHS: Intern(x.RHS).(Expr)})
	case *IfStmt:
		return canonicalize(&IfStmt{Cond: Intern(x.Cond).(Expr),
			Then: Intern(x.Then).(*Block), Else: Intern(x.Else).(*Block)})
	case *RepeatStmt:
		return canonicalize(&RepeatStmt{Body: Intern(x.Body).(*Block)})
	case *ExitWhenStmt:
		return canonicalize(&ExitWhenStmt{Cond: Intern(x.Cond).(Expr)})
	case *InputStmt:
		return canonicalize(&InputStmt{Names: append([]string(nil), x.Names...)})
	case *OutputStmt:
		c := &OutputStmt{Exprs: make([]Expr, len(x.Exprs))}
		for i, e := range x.Exprs {
			c.Exprs[i] = Intern(e).(Expr)
		}
		return canonicalize(c)
	case *AssertStmt:
		return canonicalize(&AssertStmt{Cond: Intern(x.Cond).(Expr)})
	case *Ident:
		return canonicalize(&Ident{Name: x.Name})
	case *Num:
		return canonicalize(&Num{Val: x.Val, IsChar: x.IsChar})
	case *Bin:
		return canonicalize(&Bin{Op: x.Op, X: Intern(x.X).(Expr), Y: Intern(x.Y).(Expr)})
	case *Un:
		return canonicalize(&Un{Op: x.Op, X: Intern(x.X).(Expr)})
	case *Mem:
		return canonicalize(&Mem{Addr: Intern(x.Addr).(Expr)})
	case *Call:
		return canonicalize(&Call{Name: x.Name})
	default:
		return n
	}
}

// InternDesc interns a description with the concrete type preserved.
func InternDesc(d *Description) *Description { return Intern(d).(*Description) }

// InternOwned is Intern for a tree the caller built and hands over, such as
// a transformation's outcome: instead of interning a copy of every
// unfrozen node, it replaces each unfrozen node's children by their
// canonical nodes in place and then publishes the node itself when no equal
// node is canonical yet. The result is the node Intern would return, and n
// stays structurally unchanged, though some of its nodes may now be
// frozen. The caller must own every unfrozen node under n: no other
// goroutine may reach one, and the caller must not mutate one afterwards.
// A slice an unfrozen node shares with a frozen one is never written to,
// because the frozen node's elements are canonical already.
func InternOwned(n Node) Node {
	if m := metaOf(n); m == nil || m.frozen() {
		return n
	}
	switch x := n.(type) {
	case *Description:
		for i, s := range x.Sections {
			if c := InternOwned(s).(*Section); c != s {
				x.Sections[i] = c
			}
		}
	case *Section:
		for i, d := range x.Decls {
			if c := InternOwned(d).(Decl); c != d {
				x.Decls[i] = c
			}
		}
	case *FuncDecl:
		x.Body = InternOwned(x.Body).(*Block)
	case *RoutineDecl:
		x.Body = InternOwned(x.Body).(*Block)
	case *Block:
		for i, s := range x.Stmts {
			if c := InternOwned(s).(Stmt); c != s {
				x.Stmts[i] = c
			}
		}
	case *AssignStmt:
		x.LHS = InternOwned(x.LHS).(Expr)
		x.RHS = InternOwned(x.RHS).(Expr)
	case *IfStmt:
		x.Cond = InternOwned(x.Cond).(Expr)
		x.Then = InternOwned(x.Then).(*Block)
		x.Else = InternOwned(x.Else).(*Block)
	case *RepeatStmt:
		x.Body = InternOwned(x.Body).(*Block)
	case *ExitWhenStmt:
		x.Cond = InternOwned(x.Cond).(Expr)
	case *OutputStmt:
		for i, e := range x.Exprs {
			if c := InternOwned(e).(Expr); c != e {
				x.Exprs[i] = c
			}
		}
	case *AssertStmt:
		x.Cond = InternOwned(x.Cond).(Expr)
	case *Bin:
		x.X = InternOwned(x.X).(Expr)
		x.Y = InternOwned(x.Y).(Expr)
	case *Un:
		x.X = InternOwned(x.X).(Expr)
	case *Mem:
		x.Addr = InternOwned(x.Addr).(Expr)
	case *RegDecl, *InputStmt, *Ident, *Num, *Call:
		// Leaves: nothing under them to canonicalize.
	}
	return canonicalize(n)
}

// canonicalize looks up the freshly built node c (whose children are all
// canonical already, so hashing it costs one shallow fold) and either
// returns the existing canonical node or freezes and publishes c itself.
func canonicalize(c Node) Node {
	dg := hashNode(c)
	sh := internShardFor(dg)
	sh.mu.Lock()
	if prev, ok := sh.m[dg]; ok {
		sh.mu.Unlock()
		return prev
	}
	// Freeze before publishing: once c is in the map another goroutine may
	// read it, and frozen() must already answer true by then.
	metaOf(c).freeze(dg)
	if len(sh.m) >= internShardCap {
		sh.m = nil
	}
	if sh.m == nil {
		sh.m = make(map[Digest]Node, 256)
	}
	sh.m[dg] = c
	sh.mu.Unlock()
	return c
}
