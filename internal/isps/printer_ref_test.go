package isps_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"extra/internal/core"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/proofs"
)

// The reference printer: the fmt-based printer the package shipped before
// it wrote straight into one builder. The package's printer must produce
// the same bytes.

func refFormat(d *isps.Description) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s := begin\n", d.Name)
	for _, s := range d.Sections {
		fmt.Fprintf(&b, "** %s **\n", s.Name)
		for i, dec := range s.Decls {
			refDecl(&b, dec, i == len(s.Decls)-1)
		}
	}
	b.WriteString("end\n")
	return b.String()
}

func refDecl(b *strings.Builder, dec isps.Decl, last bool) {
	switch d := dec.(type) {
	case *isps.RegDecl:
		if d.Comment != "" {
			fmt.Fprintf(b, "  ! %s\n", d.Comment)
		}
		fmt.Fprintf(b, "  %s%s", d.Name, refWidth(d.Width))
		if !last {
			b.WriteString(",")
		}
		b.WriteString("\n")
	case *isps.FuncDecl:
		if d.Comment != "" {
			fmt.Fprintf(b, "  ! %s\n", d.Comment)
		}
		fmt.Fprintf(b, "  %s()%s := begin\n", d.Name, refWidth(d.Width))
		refBlock(b, d.Body, 2)
		b.WriteString("  end\n")
	case *isps.RoutineDecl:
		fmt.Fprintf(b, "  %s := begin\n", d.Name)
		refBlock(b, d.Body, 2)
		b.WriteString("  end\n")
	default:
		panic(fmt.Sprintf("unknown declaration type %T", dec))
	}
}

func refWidth(w int) string {
	switch w {
	case 0:
		return ": integer"
	case 1:
		return "<>"
	default:
		return fmt.Sprintf("<%d:0>", w-1)
	}
}

func refBlock(b *strings.Builder, blk *isps.Block, depth int) {
	for _, s := range blk.Stmts {
		refStmt(b, s, depth)
	}
}

func refIndent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func refStmt(b *strings.Builder, s isps.Stmt, depth int) {
	refIndent(b, depth)
	switch st := s.(type) {
	case *isps.AssignStmt:
		fmt.Fprintf(b, "%s <- %s;\n", refExprString(st.LHS), refExprString(st.RHS))
	case *isps.IfStmt:
		fmt.Fprintf(b, "if %s\n", refExprString(st.Cond))
		refIndent(b, depth)
		b.WriteString("then\n")
		refBlock(b, st.Then, depth+1)
		if len(st.Else.Stmts) > 0 {
			refIndent(b, depth)
			b.WriteString("else\n")
			refBlock(b, st.Else, depth+1)
		}
		refIndent(b, depth)
		b.WriteString("end_if;\n")
	case *isps.RepeatStmt:
		b.WriteString("repeat\n")
		refBlock(b, st.Body, depth+1)
		refIndent(b, depth)
		b.WriteString("end_repeat;\n")
	case *isps.ExitWhenStmt:
		fmt.Fprintf(b, "exit_when (%s);\n", refExprString(st.Cond))
	case *isps.AssertStmt:
		fmt.Fprintf(b, "assert (%s);\n", refExprString(st.Cond))
	case *isps.InputStmt:
		fmt.Fprintf(b, "input (%s);\n", strings.Join(st.Names, ", "))
	case *isps.OutputStmt:
		parts := make([]string, len(st.Exprs))
		for i, e := range st.Exprs {
			parts[i] = refExprString(e)
		}
		fmt.Fprintf(b, "output (%s);\n", strings.Join(parts, ", "))
	default:
		panic(fmt.Sprintf("unknown statement type %T", s))
	}
}

func refPrec(e isps.Expr) int {
	switch x := e.(type) {
	case *isps.Bin:
		switch x.Op {
		case isps.OpOr, isps.OpXor:
			return 1
		case isps.OpAnd:
			return 2
		case isps.OpEq, isps.OpNe, isps.OpLt, isps.OpGt, isps.OpLe, isps.OpGe:
			return 4
		case isps.OpAdd, isps.OpSub:
			return 5
		case isps.OpMul, isps.OpDiv:
			return 6
		}
	case *isps.Un:
		if x.Op == isps.OpNot {
			return 3
		}
		return 7
	}
	return 8
}

var refOpStrings = map[isps.Op]string{
	isps.OpAdd: "+", isps.OpSub: "-", isps.OpMul: "*", isps.OpDiv: "/",
	isps.OpEq: "=", isps.OpNe: "<>", isps.OpLt: "<", isps.OpGt: ">", isps.OpLe: "<=", isps.OpGe: ">=",
	isps.OpAnd: "and", isps.OpOr: "or", isps.OpXor: "xor", isps.OpNot: "not", isps.OpNeg: "-",
}

func refOp(o isps.Op) string {
	if s, ok := refOpStrings[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

func refExprString(e isps.Expr) string {
	var b strings.Builder
	refExpr(&b, e, 0)
	return b.String()
}

func refExpr(b *strings.Builder, e isps.Expr, parentPrec int) {
	p := refPrec(e)
	if p < parentPrec {
		b.WriteString("(")
		defer b.WriteString(")")
	}
	switch x := e.(type) {
	case *isps.Ident:
		b.WriteString(x.Name)
	case *isps.Num:
		if x.IsChar && x.Val >= 32 && x.Val < 127 && x.Val != '\'' {
			fmt.Fprintf(b, "'%c'", rune(x.Val))
		} else {
			fmt.Fprintf(b, "%d", x.Val)
		}
	case *isps.Call:
		fmt.Fprintf(b, "%s()", x.Name)
	case *isps.Mem:
		b.WriteString("Mb[")
		refExpr(b, x.Addr, 0)
		b.WriteString("]")
	case *isps.Un:
		b.WriteString(refOp(x.Op))
		if x.Op == isps.OpNot {
			b.WriteString(" ")
		}
		refExpr(b, x.X, p+1)
	case *isps.Bin:
		leftPrec := p
		if x.Op.IsComparison() {
			leftPrec = p + 1
		}
		refExpr(b, x.X, leftPrec)
		fmt.Fprintf(b, " %s ", refOp(x.Op))
		refExpr(b, x.Y, p+1)
	default:
		panic(fmt.Sprintf("unknown expression type %T", e))
	}
}

func refStmtString(s isps.Stmt) string {
	var b strings.Builder
	refStmt(&b, s, 0)
	return strings.TrimSuffix(b.String(), "\n")
}

func refPathString(p isps.Path) string {
	if len(p) == 0 {
		return "/"
	}
	var b strings.Builder
	for _, i := range p {
		fmt.Fprintf(&b, "/%d", i)
	}
	return b.String()
}

// fuzzParseSeeds returns the sources FuzzParse is seeded with: the corpus,
// its literal seeds and the checked-in corpus files under testdata.
func fuzzParseSeeds(t *testing.T) []string {
	t.Helper()
	var seeds []string
	for _, e := range machines.All() {
		seeds = append(seeds, e.Source)
	}
	for _, e := range langops.All() {
		seeds = append(seeds, e.Source)
	}
	seeds = append(seeds, "", "x := begin end",
		"a.operation := begin\n** S **\n  n: integer,\n  a.execute := begin\n    input (n);\n  end\nend")
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if lit, ok := strings.CutPrefix(line, "string("); ok {
				src, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				seeds = append(seeds, src)
			}
		}
	}
	return seeds
}

// catalogStates returns every corpus description and every intermediate
// state of the catalog analyses: each analysis's recorded steps replayed on
// a fresh session, one state per step.
func catalogStates(t *testing.T) []*isps.Description {
	t.Helper()
	var states []*isps.Description
	for _, e := range machines.All() {
		states = append(states, machines.Get(e.Instruction))
	}
	for _, e := range langops.All() {
		states = append(states, langops.Get(e.Name))
	}
	for _, a := range append(proofs.Table2(), proofs.Extensions()...) {
		done, _, err := a.Run()
		if err != nil {
			t.Fatalf("%s/%s: %v", a.Instruction, a.Operator, err)
		}
		s, err := core.NewSession(langops.Get(a.Operator), machines.Get(a.Instruction))
		if err != nil {
			t.Fatal(err)
		}
		s.Extended = a.Extended
		for _, st := range done.Steps {
			if err := s.Apply(st.Side, st.Xform, st.At, st.Args); err != nil {
				t.Fatalf("%s/%s: replaying step %d: %v", a.Instruction, a.Operator, st.Index, err)
			}
			states = append(states, s.Desc(st.Side))
		}
	}
	return states
}

// TestPrinterMatchesReference: Format, ExprString, StmtString and
// Path.String produce the reference printer's bytes on every FuzzParse seed
// that parses, every corpus description and every intermediate catalog
// state, for the whole description and for every statement, expression
// and path in it.
func TestPrinterMatchesReference(t *testing.T) {
	states := catalogStates(t)
	for _, src := range fuzzParseSeeds(t) {
		if d, err := isps.Parse(src); err == nil {
			states = append(states, d)
		}
	}
	nodes := 0
	for _, d := range states {
		if got, want := isps.Format(d), refFormat(d); got != want {
			t.Fatalf("Format differs:\n%s\nreference:\n%s", got, want)
		}
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			nodes++
			if got, want := p.String(), refPathString(p); got != want {
				t.Fatalf("Path.String = %q, reference %q", got, want)
			}
			switch x := n.(type) {
			case isps.Expr:
				if got, want := isps.ExprString(x), refExprString(x); got != want {
					t.Fatalf("ExprString = %q, reference %q", got, want)
				}
			case isps.Stmt:
				if got, want := isps.StmtString(x), refStmtString(x); got != want {
					t.Fatalf("StmtString = %q, reference %q", got, want)
				}
			}
			return true
		})
	}
	// Operators and literals the corpus does not spell: every operator in
	// both positions, character literals at the printable bounds and the
	// quote, negative and large numbers.
	x, y := &isps.Ident{Name: "x"}, &isps.Ident{Name: "y"}
	var exprs []isps.Expr
	for op := isps.OpAdd; op <= isps.OpNeg+1; op++ {
		exprs = append(exprs, &isps.Bin{Op: op, X: x, Y: &isps.Bin{Op: op, X: x, Y: y}},
			&isps.Un{Op: op, X: &isps.Un{Op: op, X: x}})
	}
	for _, v := range []int64{-1 << 63, -5, 0, 31, 32, 39, 126, 127, 1 << 40} {
		exprs = append(exprs, &isps.Num{Val: v}, &isps.Num{Val: v, IsChar: true})
	}
	for _, e := range exprs {
		if got, want := isps.ExprString(e), refExprString(e); got != want {
			t.Errorf("ExprString = %q, reference %q", got, want)
		}
	}
	for _, p := range []isps.Path{nil, {0}, {12, 0, 345}, {1 << 40}} {
		if got, want := p.String(), refPathString(p); got != want {
			t.Errorf("Path.String = %q, reference %q", got, want)
		}
	}
	if len(states) < 300 || nodes == 0 {
		t.Fatalf("checked %d states, %d nodes: the corpus or the catalog replay is broken", len(states), nodes)
	}
}

// TestNameFreeMatchesFreshName: NameFree(root, x) agrees with
// FreshName(root, x) == x on every corpus description and every
// intermediate catalog state, and on each one's routine body (a root that
// declares nothing), for every name the description declares or uses, each
// such name with a suffix, every keyword, and names no description
// mentions.
func TestNameFreeMatchesFreshName(t *testing.T) {
	names := []string{"t0", "t1", "temp", "zz", "flag", "",
		"begin", "end", "if", "then", "else", "end_if", "repeat", "end_repeat", "exit_when",
		"input", "output", "assert", "not", "and", "or", "xor", "Mb"}
	checked := 0
	for _, d := range catalogStates(t) {
		cand := append([]string(nil), names...)
		for n := range isps.UsedNames(d) {
			cand = append(cand, n, n+"1")
		}
		for _, s := range d.Sections {
			for _, dec := range s.Decls {
				cand = append(cand, dec.DeclName())
			}
		}
		for _, root := range []isps.Node{d, d.Routine().Body} {
			for _, x := range cand {
				if got, want := isps.NameFree(root, x), isps.FreshName(root, x) == x; got != want {
					t.Fatalf("%s: NameFree(%T, %q) = %v, FreshName says %v", d.Name, root, x, got, want)
				}
				checked++
			}
		}
	}
	t.Logf("%d (root, name) pairs", checked)
}
