package isps

import "testing"

const hashDemoSrc = `demo.operation := begin
** S **
  exp<>, x: integer,
  demo.execute := begin
    input (exp);
    if exp
    then
      x <- 1;
    else
      x <- 2;
    end_if;
    output (x);
  end
end`

// TestHashStable: hashing the same tree twice, or a reparse of it, yields
// the same digest.
func TestHashStable(t *testing.T) {
	d := MustParse(hashDemoSrc)
	h1 := Hash(d)
	h2 := Hash(d)
	if h1 != h2 {
		t.Fatalf("same tree hashed differently: %x vs %x", h1, h2)
	}
	if h3 := Hash(MustParse(Format(d))); h3 != h1 {
		t.Fatalf("reparse hashed differently: %x vs %x", h3, h1)
	}
	if h1 == (Digest{}) {
		t.Fatal("zero digest")
	}
}

// TestHashDistinguishes: digests separate trees that differ in exactly one
// scalar, one node kind, or one shape detail — the near-miss pairs a weak
// encoding would conflate.
func TestHashDistinguishes(t *testing.T) {
	base := MustParse(hashDemoSrc)
	variants := []string{
		// a changed literal
		`demo.operation := begin
** S **
  exp<>, x: integer,
  demo.execute := begin
    input (exp);
    if exp then x <- 1; else x <- 3; end_if;
    output (x);
  end
end`,
		// a changed identifier
		`demo.operation := begin
** S **
  exp<>, y: integer,
  demo.execute := begin
    input (exp);
    if exp then y <- 1; else y <- 2; end_if;
    output (y);
  end
end`,
		// swapped branches
		`demo.operation := begin
** S **
  exp<>, x: integer,
  demo.execute := begin
    input (exp);
    if exp then x <- 2; else x <- 1; end_if;
    output (x);
  end
end`,
		// a changed width
		`demo.operation := begin
** S **
  exp<3:0>, x: integer,
  demo.execute := begin
    input (exp);
    if exp then x <- 1; else x <- 2; end_if;
    output (x);
  end
end`,
	}
	seen := map[Digest]string{Hash(base): Format(base)}
	for _, src := range variants {
		d := MustParse(src)
		h := Hash(d)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision between:\n%s\nand:\n%s", prev, Format(d))
		}
		seen[h] = Format(d)
	}
}

// TestHashExprShapes: expression trees that print similarly but differ
// structurally (operator, char flag, association) get distinct digests,
// while structurally identical ones agree.
func TestHashExprShapes(t *testing.T) {
	a := &Bin{Op: OpAdd, X: &Ident{Name: "a"}, Y: &Ident{Name: "b"}}
	b := &Bin{Op: OpSub, X: &Ident{Name: "a"}, Y: &Ident{Name: "b"}}
	if Hash(a) == Hash(b) {
		t.Fatal("operator change not reflected in digest")
	}
	c := &Bin{Op: OpAdd, X: &Ident{Name: "a"}, Y: &Ident{Name: "b"}}
	if Hash(a) != Hash(c) {
		t.Fatal("equal expressions hashed differently")
	}
	// 'a' and 97 print differently and must hash differently, same as the
	// formatted visited keys the digest replaces.
	if Hash(&Num{Val: 97, IsChar: true}) == Hash(&Num{Val: 97}) {
		t.Fatal("character flag not reflected in digest")
	}
	// (a+b)+c vs a+(b+c): same leaves, different association.
	l := &Bin{Op: OpAdd, X: a, Y: &Ident{Name: "c"}}
	r := &Bin{Op: OpAdd, X: &Ident{Name: "a"}, Y: &Bin{Op: OpAdd, X: &Ident{Name: "b"}, Y: &Ident{Name: "c"}}}
	if Hash(l) == Hash(r) {
		t.Fatal("association not reflected in digest")
	}
}

// TestHashPairOrder: HashPair is ordered — (op, ins) and (ins, op) are
// different search states.
func TestHashPairOrder(t *testing.T) {
	a := &Ident{Name: "a"}
	b := &Ident{Name: "b"}
	if HashPair(a, b) == HashPair(b, a) {
		t.Fatal("pair digest is symmetric")
	}
	if HashPair(a, b) != HashPair(a, b) {
		t.Fatal("pair digest unstable")
	}
	// The separator keeps boundary ambiguity out: pairing must not reduce
	// to hashing a concatenation.
	if HashPair(a, b) == Hash(a) || HashPair(a, b) == Hash(b) {
		t.Fatal("pair digest collides with component digest")
	}
}

// TestHashAllocationFree: the digest of a full description is computed
// without heap allocation.
func TestHashAllocationFree(t *testing.T) {
	d := MustParse(hashDemoSrc)
	allocs := testing.AllocsPerRun(100, func() { _ = Hash(d) })
	if allocs != 0 {
		t.Fatalf("Hash allocates %.1f objects per run, want 0", allocs)
	}
}
