package isps_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
)

const internSrc = `t.instruction := begin
** S **
  f<>, r: integer, s: integer,
  t.execute := begin
    input (f, r, s);
    if f
    then
      output (r - s);
    else
      output (r + s);
    end_if;
  end
end`

// TestInternDedup: structurally equal trees intern to the same canonical
// pointer; the argument is copied, never retained, and stays unfrozen.
func TestInternDedup(t *testing.T) {
	a := isps.MustParse(internSrc)
	b := isps.MustParse(internSrc)
	if a == b {
		t.Fatal("independent parses share a pointer")
	}
	ca, cb := isps.InternDesc(a), isps.InternDesc(b)
	if ca != cb {
		t.Error("equal trees interned to different canonical pointers")
	}
	if !isps.Interned(ca) {
		t.Error("interned tree not marked canonical")
	}
	if isps.Interned(a) {
		t.Error("Intern froze its argument; callers own the trees they pass in")
	}
	// Re-interning a canonical tree is the identity.
	if isps.InternDesc(ca) != ca {
		t.Error("re-interning a canonical tree minted a new pointer")
	}
	// Sharing reaches subtrees: the two output statements' r and s idents
	// are structurally equal across branches and must be one node.
	ifs := ca.Routine().Body.Stmts[1].(*isps.IfStmt)
	sub := ifs.Then.Stmts[0].(*isps.OutputStmt).Exprs[0].(*isps.Bin)
	add := ifs.Else.Stmts[0].(*isps.OutputStmt).Exprs[0].(*isps.Bin)
	if sub.X != add.X || sub.Y != add.Y {
		t.Error("equal subexpressions of one interned tree are not shared")
	}
}

// kindsSrc holds every node kind, and every child position of each.
const kindsSrc = `k.instruction := begin
** S **
  a<7:0>, p: integer,
  f()<7:0> := begin
    f <- Mb[p];
  end
  k.execute := begin
    input (a, p);
    assert (not (a = 0));
    repeat
      exit_when (a = 0);
      a <- a - f();
    end_repeat;
    if a
    then
      output (a);
    else
      output (p, 'x');
    end_if;
  end
end`

// TestReplaceAtTypedErrors: at every child position of every node kind,
// ReplaceAt accepts a node of the position's kind and shares every subtree
// off the rebuilt spine, refuses any other kind with a *NodeError wrapping
// ErrChildKind, and refuses a path past either end of a node's children
// with an error rather than a panic. The input is never changed.
func TestReplaceAtTypedErrors(t *testing.T) {
	d := isps.InternDesc(isps.MustParse(kindsSrc))
	text := isps.Format(d)
	// One replacement of each kind a child position can take.
	repls := map[string]isps.Node{
		"section": &isps.Section{Name: "Z"},
		"decl":    &isps.RegDecl{Name: "zz", Width: 3},
		"block":   &isps.Block{},
		"stmt":    &isps.ExitWhenStmt{Cond: &isps.Num{Val: 9}},
		"expr":    &isps.Num{Val: 12345},
	}
	one := func(kind string) func(int) string { return func(int) string { return kind } }
	// accepts is the table under test: the kind each child position of a
	// node takes, by the node's type. Leaves have no entry.
	accepts := map[string]func(i int) string{
		"*isps.Description":  one("section"),
		"*isps.Section":      one("decl"),
		"*isps.FuncDecl":     one("block"),
		"*isps.RoutineDecl":  one("block"),
		"*isps.Block":        one("stmt"),
		"*isps.AssignStmt":   one("expr"),
		"*isps.RepeatStmt":   one("block"),
		"*isps.ExitWhenStmt": one("expr"),
		"*isps.OutputStmt":   one("expr"),
		"*isps.AssertStmt":   one("expr"),
		"*isps.Bin":          one("expr"),
		"*isps.Un":           one("expr"),
		"*isps.Mem":          one("expr"),
		"*isps.IfStmt": func(i int) string {
			if i == 0 {
				return "expr"
			}
			return "block"
		},
	}
	seen := map[string]int{}
	isps.Walk(d, func(n isps.Node, p isps.Path) bool {
		typ := fmt.Sprintf("%T", n)
		for _, i := range []int{-1, n.NumChildren()} {
			if _, err := isps.ReplaceAt(d, p.Child(i), repls["expr"]); err == nil {
				t.Errorf("%s (%s): child %d of %d accepted", p, typ, i, n.NumChildren())
			}
		}
		for i := 0; i < n.NumChildren(); i++ {
			seen[typ]++
			at := p.Child(i)
			want := accepts[typ](i)
			for kind, r := range repls {
				out, err := isps.ReplaceAt(d, at, r)
				if kind != want {
					var ne *isps.NodeError
					if out != nil || !errors.As(err, &ne) || !errors.Is(err, isps.ErrChildKind) {
						t.Errorf("%s (%s): %s into a %s slot = %v, want a NodeError wrapping ErrChildKind", at, typ, kind, want, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s (%s): %s into its own slot: %v", at, typ, kind, err)
					continue
				}
				// Down the spine, every child off it is the original's.
				was, now := isps.Node(d), out
				for _, step := range at {
					for j := 0; j < was.NumChildren(); j++ {
						if j != step && now.Child(j) != was.Child(j) {
							t.Errorf("%s (%s): child %d off the spine was copied", at, typ, j)
						}
					}
					was, now = was.Child(step), now.Child(step)
				}
				if now != r {
					t.Errorf("%s (%s): the replacement did not land", at, typ)
				}
			}
		}
		return true
	})
	for typ := range accepts {
		if seen[typ] == 0 {
			t.Errorf("%s: no child position exercised", typ)
		}
	}
	if isps.Format(d) != text {
		t.Error("ReplaceAt changed its input")
	}
}

// TestReplaceAtPersistent: ReplaceAt rebuilds only the spine — the result
// differs at the target, the original is untouched, and off-spine subtrees
// of an interned root are shared by pointer.
func TestReplaceAtPersistent(t *testing.T) {
	d := isps.InternDesc(isps.MustParse(internSrc))
	// Path to the if statement's condition.
	p, ok := isps.Find(d, func(n isps.Node) bool {
		_, isIf := n.(*isps.IfStmt)
		return isIf
	})
	if !ok {
		t.Fatal("no if statement")
	}
	condPath := append(append(isps.Path(nil), p...), 0)
	nd, err := d.ReplaceAtDesc(condPath, &isps.Num{Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := isps.Resolve(nd, condPath); got.(*isps.Num).Val != 1 {
		t.Error("replacement did not land")
	}
	orig, _ := isps.Resolve(d, condPath)
	if _, isNum := orig.(*isps.Num); isNum {
		t.Error("ReplaceAt mutated the original")
	}
	// The input statement is off the spine and must be shared.
	if nd.Routine().Body.Stmts[0] != d.Routine().Body.Stmts[0] {
		t.Error("off-spine statement was copied instead of shared")
	}
	if isps.Equal(nd, d) {
		t.Error("rebuilt tree compares equal to the original")
	}
}

// TestSpliceAtDesc: statement-list splices are persistent and
// bounds-checked.
func TestSpliceAtDesc(t *testing.T) {
	d := isps.InternDesc(isps.MustParse(internSrc))
	bodyPath, _ := isps.Find(d, func(n isps.Node) bool {
		_, isBlk := n.(*isps.Block)
		return isBlk
	})
	before := len(d.Routine().Body.Stmts)
	nd, err := d.SpliceAtDesc(bodyPath, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nd.Routine().Body.Stmts); got != before-1 {
		t.Errorf("after delete: %d stmts, want %d", got, before-1)
	}
	if len(d.Routine().Body.Stmts) != before {
		t.Error("splice mutated the original")
	}
	if _, err := d.SpliceAtDesc(bodyPath, before+1, 0); err == nil {
		t.Error("out-of-range splice index accepted")
	}
	if _, err := d.SpliceAtDesc(bodyPath, 0, before+5); err == nil {
		t.Error("over-long deletion accepted")
	}
}

// TestRewritePersistent: Rewrite replaces what fn matches without
// descending into replacements, rebuilds only the spines above them, and
// hands back its input when nothing matched.
func TestRewritePersistent(t *testing.T) {
	d := isps.InternDesc(isps.MustParse(internSrc))
	same, err := isps.Rewrite(d, func(isps.Node) (isps.Node, bool) { return nil, false })
	if err != nil || same != isps.Node(d) {
		t.Fatalf("a rewrite that matches nothing must return its input: %v", err)
	}
	if len(d.Inputs()) == 0 {
		t.Fatal("test description has no inputs")
	}
	v := d.Inputs()[0]
	want := isps.Format(d)
	hits := 0
	out, err := isps.Rewrite(d, func(n isps.Node) (isps.Node, bool) {
		if id, ok := n.(*isps.Ident); ok && id.Name == v {
			hits++
			// The replacement mentions v again; it must not be re-visited.
			return &isps.Bin{Op: isps.OpAdd, X: &isps.Ident{Name: v}, Y: &isps.Num{Val: 0}}, true
		}
		return nil, false
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatalf("%s is never read in the test description", v)
	}
	if isps.Format(d) != want {
		t.Error("Rewrite wrote through to its interned input")
	}
	nd := out.(*isps.Description)
	if n := strings.Count(isps.Format(nd), v+" + 0"); n != hits {
		t.Errorf("%d of %d replacements landed", n, hits)
	}
	// The input statement names v only as an operand, not as an Ident, so
	// it is off every rebuilt spine and must be shared.
	if nd.Routine().Body.Stmts[0] != d.Routine().Body.Stmts[0] {
		t.Error("an unchanged statement was copied instead of shared")
	}
}

// FuzzHashCons pins the hash-consing contract on arbitrary parsed pairs:
// Equal(a, b) ⇔ Intern(a) == Intern(b) ⇔ Hash(a) == Hash(b). The backward
// direction of the hash leg treats a 128-bit collision between observed
// unequal trees as a failure worth knowing about.
func FuzzHashCons(f *testing.F) {
	var corpus []string
	for _, e := range machines.All() {
		corpus = append(corpus, e.Source)
	}
	for _, e := range langops.All() {
		corpus = append(corpus, e.Source)
	}
	for i, a := range corpus {
		f.Add(a, corpus[(i+1)%len(corpus)])
		f.Add(a, a)
	}
	f.Fuzz(func(t *testing.T, sa, sb string) {
		a, err := isps.Parse(sa)
		if err != nil {
			return
		}
		b, err := isps.Parse(sb)
		if err != nil {
			return
		}
		eq := isps.Equal(a, b)
		ca, cb := isps.InternDesc(a), isps.InternDesc(b)
		if (ca == cb) != eq {
			t.Fatalf("Equal = %v but Intern pointer-equal = %v", eq, ca == cb)
		}
		if (isps.Hash(a) == isps.Hash(b)) != eq {
			t.Fatalf("Equal = %v but Hash equal = %v", eq, isps.Hash(a) == isps.Hash(b))
		}
		// The canonical trees must preserve structure and digest.
		if !isps.Equal(a, ca) || isps.Hash(a) != isps.Hash(ca) {
			t.Fatal("interning changed the tree's structure or digest")
		}
	})
}

// TestInternParallel hammers the interner from many goroutines (run under
// -race in CI): concurrent interns of equal trees must agree on one
// canonical pointer per round, and concurrent readers of canonical trees
// must never observe a torn digest memo.
func TestInternParallel(t *testing.T) {
	sources := []string{internSrc}
	for _, e := range machines.All() {
		sources = append(sources, e.Source)
	}
	const workers = 8
	var wg sync.WaitGroup
	out := make([][]*isps.Description, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := make([]*isps.Description, len(sources))
			for i, src := range sources {
				d := isps.InternDesc(isps.MustParse(src))
				if !isps.Interned(d) {
					t.Errorf("worker %d: result not canonical", w)
				}
				_ = isps.Hash(d)
				got[i] = d
			}
			out[w] = got
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range sources {
			if out[w][i] != out[0][i] {
				t.Errorf("workers disagree on the canonical pointer for source %d", i)
			}
		}
	}
}

// TestInternOwned: interning a caller-owned tree in place returns the node
// Intern of a copy returns, leaves every node of the result frozen and the
// owned tree structurally unchanged, and never writes to the interned tree
// it was built over, though its rebuilt blocks share statement slices with
// that tree. Eight goroutines do this at once over one interned base while
// reading the base (run under -race in CI); half their trees are new to
// the interner, and half are equal to trees other goroutines intern.
func TestInternOwned(t *testing.T) {
	base := isps.InternDesc(isps.MustParse(internSrc))
	baseText := isps.Format(base)
	ifPath, ok := isps.Find(base, func(n isps.Node) bool { _, is := n.(*isps.IfStmt); return is })
	if !ok {
		t.Fatal("no conditional in the base")
	}
	n, err := isps.Resolve(base, ifPath)
	if err != nil {
		t.Fatal(err)
	}
	ifs := n.(*isps.IfStmt)
	// build reverses the conditional with a fresh condition; the new blocks
	// share their statement slices with the base's frozen ones.
	build := func(i int) *isps.Description {
		cond := &isps.Bin{Op: isps.OpAdd, X: ifs.Cond, Y: &isps.Num{Val: int64(i)}}
		rev := &isps.IfStmt{Cond: cond, Then: &isps.Block{Stmts: ifs.Else.Stmts}, Else: &isps.Block{Stmts: ifs.Then.Stmts}}
		d, err := base.ReplaceAtDesc(ifPath, rev)
		if err != nil {
			t.Error(err)
			return base
		}
		return d
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				v := (w + i) % 5
				if i%2 == 1 {
					v = 1000*(w+1) + i
				}
				owned := build(v)
				text := isps.Format(owned)
				copied := isps.MustParse(text)
				got := isps.InternOwned(owned)
				isps.Walk(got, func(n isps.Node, _ isps.Path) bool {
					if !isps.Interned(n) {
						t.Errorf("worker %d: %T under the result is not frozen", w, n)
					}
					return true
				})
				if isps.InternDesc(copied) != got {
					t.Errorf("worker %d: InternOwned gave a different node than Intern of a copy", w)
				}
				if isps.Format(owned) != text {
					t.Errorf("worker %d: interning in place changed the owned tree", w)
				}
				if isps.Format(base) != baseText {
					t.Errorf("worker %d: interning in place wrote through to the base", w)
				}
			}
		}(w)
	}
	wg.Wait()
	if isps.InternOwned(base) != base {
		t.Error("InternOwned of an interned tree is not the identity")
	}
}
