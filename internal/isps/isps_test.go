package isps

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

const scasbSrc = `
scasb.instruction := begin
** SOURCE.ACCESS **
  ! source string address
  di<15:0>,
  ! source string length
  cx<15:0>,
  ! fetch source character
  fetch()<7:0> := begin
    fetch <- Mb[di];
    if df
    then
      di <- di - 1;
    else
      di <- di + 1;
    end_if;
  end
** STATE **
  rf<>, df<>, rfz<>, zf<>, al<7:0>
** STRING.PROCESS **
  scasb.execute := begin
    input (rf, rfz, df, zf, di, cx, al);
    if (not rf)
    then
      if (al - fetch()) = 0 then zf <- 1; else zf <- 0; end_if;
    else
      repeat
        exit_when (cx = 0);
        cx <- cx - 1;
        if (al - fetch()) = 0 then zf <- 1; else zf <- 0; end_if;
        exit_when ((rfz and (not zf)) or ((not rfz) and zf));
      end_repeat;
    end_if;
    output (zf, di, cx);
  end
end
`

func TestParseScasb(t *testing.T) {
	d, err := Parse(scasbSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Name != "scasb.instruction" {
		t.Errorf("Name = %q", d.Name)
	}
	if got := len(d.Sections); got != 3 {
		t.Fatalf("sections = %d, want 3", got)
	}
	if d.Sections[0].Name != "SOURCE.ACCESS" {
		t.Errorf("section 0 name = %q", d.Sections[0].Name)
	}
	if f := d.Func("fetch"); f == nil || f.Width != 8 {
		t.Errorf("fetch() decl missing or wrong width: %+v", f)
	}
	if r := d.Reg("di"); r == nil || r.Width != 16 {
		t.Errorf("di decl missing or wrong width: %+v", r)
	}
	if r := d.Reg("zf"); r == nil || r.Width != 1 {
		t.Errorf("zf decl missing or wrong width: %+v", r)
	}
	if rt := d.Routine(); rt == nil || rt.Name != "scasb.execute" {
		t.Fatalf("routine missing")
	}
	if err := Validate(d); err != nil {
		t.Errorf("Validate: %v", err)
	}
	ins := d.Inputs()
	want := []string{"rf", "rfz", "df", "zf", "di", "cx", "al"}
	if len(ins) != len(want) {
		t.Fatalf("inputs = %v", ins)
	}
	for i := range want {
		if ins[i] != want[i] {
			t.Errorf("input[%d] = %q, want %q", i, ins[i], want[i])
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	d, err := Parse(scasbSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	text := Format(d)
	d2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse of formatted text failed: %v\n%s", err, text)
	}
	text2 := Format(d2)
	if text != text2 {
		t.Errorf("format not stable:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
}

func TestExprPrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"x <- a + b * c;", "a + b * c"},
		{"x <- (a + b) * c;", "(a + b) * c"},
		{"x <- a - b - c;", "a - b - c"},
		{"x <- a - (b - c);", "a - (b - c)"},
		{"x <- not (a = 0) and (b = 1);", "not a = 0 and b = 1"},
		{"x <- (rfz and (not zf)) or ((not rfz) and zf);", "rfz and not zf or not rfz and zf"},
		{"x <- Mb[p + 1] - 'a';", "Mb[p + 1] - 'a'"},
		{"x <- -(a + b);", "-(a + b)"},
	}
	for _, c := range cases {
		src := "d.operation := begin\n** S **\n x: integer, a: integer, b: integer, c: integer, p: integer, rfz<>, zf<>,\n d.execute := begin\n" +
			c.src + "\nend\nend"
		d, err := Parse(src)
		if err != nil {
			t.Errorf("%s: parse error: %v", c.src, err)
			continue
		}
		as := d.Routine().Body.Stmts[0].(*AssignStmt)
		got := ExprString(as.RHS)
		if got != c.want {
			t.Errorf("%s: printed %q, want %q", c.src, got, c.want)
		}
		// Round-trip: reprinting a reparse of the printed form is stable.
		src2 := strings.Replace(src, c.src, "x <- "+got+";", 1)
		d2, err := Parse(src2)
		if err != nil {
			t.Errorf("%s: reparse error: %v", got, err)
			continue
		}
		got2 := ExprString(d2.Routine().Body.Stmts[0].(*AssignStmt).RHS)
		if got2 != got {
			t.Errorf("%s: unstable printing: %q then %q", c.src, got, got2)
		}
	}
}

func TestPathResolveReplace(t *testing.T) {
	d := MustParse(scasbSrc)
	// Find the output statement.
	p, ok := Find(d, func(n Node) bool { _, is := n.(*OutputStmt); return is })
	if !ok {
		t.Fatal("no output statement found")
	}
	n, err := Resolve(d, p)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	out := n.(*OutputStmt)
	if len(out.Exprs) != 3 {
		t.Fatalf("output arity = %d", len(out.Exprs))
	}
	// Replace it and verify the original is unaffected.
	nd, err := d.ReplaceAtDesc(p, &OutputStmt{Exprs: []Expr{&Num{Val: 7}}})
	if err != nil {
		t.Fatalf("ReplaceAtDesc: %v", err)
	}
	n2, _ := Resolve(nd, p)
	if len(n2.(*OutputStmt).Exprs) != 1 {
		t.Error("replace did not take effect")
	}
	nc, _ := Resolve(d, p)
	if len(nc.(*OutputStmt).Exprs) != 3 {
		t.Error("replace wrote through to the original")
	}
}

// TestResolveErrorKeepsPath: a path that leaves the tree fails with a
// *ResolveError whose message names the failing step, and the message does
// not change when the caller reuses the path slice it passed.
func TestResolveErrorKeepsPath(t *testing.T) {
	d := MustParse(scasbSrc)
	p := Path{0, 0, 99}
	_, err := Resolve(d, p)
	var re *ResolveError
	if !errors.As(err, &re) {
		t.Fatalf("Resolve(%s) = %v, want a *ResolveError", p, err)
	}
	want := "isps: path /0/0/99: index 99 out of range at depth 2 (*isps.RegDecl has 0 children)"
	if got := err.Error(); got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
	p[0], p[2] = 7, 8
	if got := err.Error(); got != want {
		t.Errorf("message after reusing the path: %q, want %q", got, want)
	}
}

// TestVisitMatchesWalk: Visit calls fn on the nodes Walk does, in the same
// order, skips the same subtrees when fn returns false, and allocates
// nothing.
func TestVisitMatchesWalk(t *testing.T) {
	d := MustParse(scasbSrc)
	for _, skip := range []bool{false, true} {
		// With skip, fn refuses the children of every statement.
		keep := func(n Node) bool {
			_, isStmt := n.(Stmt)
			return !skip || !isStmt
		}
		var walked, visited []Node
		Walk(d, func(n Node, _ Path) bool {
			walked = append(walked, n)
			return keep(n)
		})
		Visit(d, func(n Node) bool {
			visited = append(visited, n)
			return keep(n)
		})
		if len(walked) < 10 || !slices.Equal(walked, visited) {
			t.Errorf("skip %v: Walk visited %d nodes, Visit %d, or in another order", skip, len(walked), len(visited))
		}
	}
	idents := 0
	allocs := testing.AllocsPerRun(20, func() {
		Visit(d, func(n Node) bool {
			if _, ok := n.(*Ident); ok {
				idents++
			}
			return true
		})
	})
	if allocs != 0 || idents == 0 {
		t.Errorf("Visit allocated %v times per walk (%d identifiers seen)", allocs, idents)
	}
}

func TestPathStringParse(t *testing.T) {
	for _, p := range []Path{{}, {0}, {2, 0, 1, 5}} {
		s := p.String()
		q, err := ParsePath(s)
		if err != nil {
			t.Fatalf("ParsePath(%q): %v", s, err)
		}
		if !p.Equal(q) {
			t.Errorf("round trip %v -> %q -> %v", p, s, q)
		}
	}
	if _, err := ParsePath("bogus"); err == nil {
		t.Error("ParsePath accepted garbage")
	}
}

func TestInsertRemoveStmt(t *testing.T) {
	d := MustParse(scasbSrc)
	// Routine body path: section 2, decl 0, child 0 (body).
	bodyPath := Path{2, 0, 0}
	nstmts := len(d.Routine().Body.Stmts)
	stmt := &AssignStmt{LHS: &Ident{Name: "zf"}, RHS: &Num{Val: 0}}
	ins, err := d.SpliceAtDesc(bodyPath, 1, 0, stmt)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	body := ins.Routine().Body
	if len(body.Stmts) != nstmts+1 {
		t.Fatalf("insert did not grow block")
	}
	if body.Stmts[1] != stmt {
		t.Error("stmt not at index 1")
	}
	rem, err := ins.SpliceAtDesc(bodyPath, 1, 1)
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	if !Equal(rem, d) {
		t.Error("remove did not undo the insert")
	}
	if len(d.Routine().Body.Stmts) != nstmts || len(body.Stmts) != nstmts+1 {
		t.Error("splices wrote through to their inputs")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			"undeclared",
			"d.op := begin\n** S **\nd.execute := begin\nx <- 1;\nend\nend",
			"undeclared",
		},
		{
			"two routines",
			"d.op := begin\n** S **\na := begin\nend\nb := begin\nend\nend",
			"want exactly 1 routine",
		},
		{
			"exit outside loop",
			"d.op := begin\n** S **\nx: integer,\nd.execute := begin\nexit_when (x = 0);\nend\nend",
			"outside any repeat",
		},
		{
			"dup decl",
			"d.op := begin\n** S **\nx: integer, x<7:0>,\nd.execute := begin\nx <- 1;\nend\nend",
			"declared twice",
		},
		{
			"call non-function",
			"d.op := begin\n** S **\nx: integer,\nd.execute := begin\nx <- x();\nend\nend",
			"not a function",
		},
	}
	for _, c := range cases {
		d, err := Parse(c.src)
		if err != nil {
			t.Errorf("%s: parse failed: %v", c.name, err)
			continue
		}
		err = Validate(d)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestFreshName(t *testing.T) {
	d := MustParse(scasbSrc)
	if got := FreshName(d, "temp"); got != "temp" {
		t.Errorf("FreshName(temp) = %q", got)
	}
	if got := FreshName(d, "di"); got != "di1" {
		t.Errorf("FreshName(di) = %q", got)
	}
	if got := FreshName(d, "not"); got == "not" {
		t.Errorf("FreshName returned a keyword")
	}
}

func TestUnicodeAssignArrow(t *testing.T) {
	src := "d.op := begin\n** S **\nx: integer,\nd.execute := begin\nx ← x + 1;\nend\nend"
	d, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse with ← failed: %v", err)
	}
	if err := Validate(d); err != nil {
		t.Errorf("Validate: %v", err)
	}
}
