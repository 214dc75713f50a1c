package isps_test

import (
	"errors"
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
// pointer; the argument is copied, never retained, and stays mutable.
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

// TestInternedSetChildRejected: mutation of a canonical node fails with a
// typed *NodeError wrapping ErrFrozen — the bug class this package used to
// hit was silent in-place mutation of trees other views still held.
func TestInternedSetChildRejected(t *testing.T) {
	d := isps.InternDesc(isps.MustParse(internSrc))
	blk := d.Routine().Body
	var ne *isps.NodeError
	err := blk.SetChild(0, blk.Stmts[1])
	if !errors.As(err, &ne) {
		t.Fatalf("SetChild on frozen node = %v, want *NodeError", err)
	}
	if !errors.Is(err, isps.ErrFrozen) {
		t.Errorf("err = %v, want ErrFrozen", err)
	}
}

// TestSetChildTypedErrors: on a mutable tree, a wrong-kinded replacement
// and an out-of-range index each fail with the matching typed sentinel
// instead of the old unchecked-type-assertion panic.
func TestSetChildTypedErrors(t *testing.T) {
	d := isps.MustParse(internSrc)
	blk := d.Routine().Body
	if err := blk.SetChild(0, &isps.Num{Val: 1}); !errors.Is(err, isps.ErrChildKind) {
		t.Errorf("expr into stmt slot = %v, want ErrChildKind", err)
	}
	if err := blk.SetChild(99, blk.Stmts[0]); !errors.Is(err, isps.ErrChildRange) {
		t.Errorf("index 99 = %v, want ErrChildRange", err)
	}
	if err := blk.SetChild(0, blk.Stmts[0]); err != nil {
		t.Errorf("valid SetChild = %v, want nil", err)
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
