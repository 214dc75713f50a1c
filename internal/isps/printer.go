package isps

import (
	"fmt"
	"strconv"
	"strings"
)

// The printer writes every description, statement and expression straight
// into one strings.Builder: no fmt call per assignment, number or
// operator, and no intermediate string per sub-expression. Its output is
// pinned to a fmt-based reference printer kept in the tests.

// Format returns the figure-style source text of a description, suitable for
// reparsing and for reproducing the paper's listings (figures 2-5).
func Format(d *Description) string {
	var b strings.Builder
	b.WriteString(d.Name)
	b.WriteString(" := begin\n")
	for _, s := range d.Sections {
		b.WriteString("** ")
		b.WriteString(s.Name)
		b.WriteString(" **\n")
		for i, dec := range s.Decls {
			printDecl(&b, dec, i == len(s.Decls)-1)
		}
	}
	b.WriteString("end\n")
	return b.String()
}

func printDecl(b *strings.Builder, dec Decl, last bool) {
	switch d := dec.(type) {
	case *RegDecl:
		// Comments print on their own line before the declaration so the
		// parser re-attaches them to the same declaration on reparse.
		printComment(b, d.Comment)
		b.WriteString("  ")
		b.WriteString(d.Name)
		printWidth(b, d.Width)
		if !last {
			b.WriteString(",")
		}
		b.WriteString("\n")
	case *FuncDecl:
		printComment(b, d.Comment)
		b.WriteString("  ")
		b.WriteString(d.Name)
		b.WriteString("()")
		printWidth(b, d.Width)
		b.WriteString(" := begin\n")
		printBlock(b, d.Body, 2)
		b.WriteString("  end\n")
	case *RoutineDecl:
		b.WriteString("  ")
		b.WriteString(d.Name)
		b.WriteString(" := begin\n")
		printBlock(b, d.Body, 2)
		b.WriteString("  end\n")
	default:
		panic(fmt.Sprintf("isps: unknown declaration type %T", dec))
	}
}

func printComment(b *strings.Builder, c string) {
	if c != "" {
		b.WriteString("  ! ")
		b.WriteString(c)
		b.WriteString("\n")
	}
}

func printWidth(b *strings.Builder, w int) {
	switch w {
	case 0:
		b.WriteString(": integer")
	case 1:
		b.WriteString("<>")
	default:
		b.WriteString("<")
		printInt(b, int64(w-1))
		b.WriteString(":0>")
	}
}

// printInt writes v in decimal without an intermediate string.
func printInt(b *strings.Builder, v int64) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], v, 10))
}

func printBlock(b *strings.Builder, blk *Block, depth int) {
	for _, s := range blk.Stmts {
		printStmt(b, s, depth)
	}
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	indent(b, depth)
	switch st := s.(type) {
	case *AssignStmt:
		printExpr(b, st.LHS, 0)
		b.WriteString(" <- ")
		printExpr(b, st.RHS, 0)
		b.WriteString(";\n")
	case *IfStmt:
		b.WriteString("if ")
		printExpr(b, st.Cond, 0)
		b.WriteString("\n")
		indent(b, depth)
		b.WriteString("then\n")
		printBlock(b, st.Then, depth+1)
		if len(st.Else.Stmts) > 0 {
			indent(b, depth)
			b.WriteString("else\n")
			printBlock(b, st.Else, depth+1)
		}
		indent(b, depth)
		b.WriteString("end_if;\n")
	case *RepeatStmt:
		b.WriteString("repeat\n")
		printBlock(b, st.Body, depth+1)
		indent(b, depth)
		b.WriteString("end_repeat;\n")
	case *ExitWhenStmt:
		b.WriteString("exit_when (")
		printExpr(b, st.Cond, 0)
		b.WriteString(");\n")
	case *AssertStmt:
		b.WriteString("assert (")
		printExpr(b, st.Cond, 0)
		b.WriteString(");\n")
	case *InputStmt:
		b.WriteString("input (")
		for i, n := range st.Names {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(n)
		}
		b.WriteString(");\n")
	case *OutputStmt:
		b.WriteString("output (")
		for i, e := range st.Exprs {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, e, 0)
		}
		b.WriteString(");\n")
	default:
		panic(fmt.Sprintf("isps: unknown statement type %T", s))
	}
}

// precedence levels, higher binds tighter; mirrors the parser.
func prec(e Expr) int {
	switch x := e.(type) {
	case *Bin:
		switch x.Op {
		case OpOr, OpXor:
			return 1
		case OpAnd:
			return 2
		case OpEq, OpNe, OpLt, OpGt, OpLe, OpGe:
			return 4
		case OpAdd, OpSub:
			return 5
		case OpMul, OpDiv:
			return 6
		}
	case *Un:
		if x.Op == OpNot {
			return 3
		}
		return 7
	}
	return 8 // primary
}

// ExprString renders an expression with minimal parentheses.
func ExprString(e Expr) string {
	var b strings.Builder
	printExpr(&b, e, 0)
	return b.String()
}

// WriteExpr writes ExprString(e) to b, for callers that build a longer
// text around an expression without an intermediate string.
func WriteExpr(b *strings.Builder, e Expr) { printExpr(b, e, 0) }

func printExpr(b *strings.Builder, e Expr, parentPrec int) {
	p := prec(e)
	paren := p < parentPrec
	if paren {
		b.WriteString("(")
	}
	switch x := e.(type) {
	case *Ident:
		b.WriteString(x.Name)
	case *Num:
		if x.IsChar && x.Val >= 32 && x.Val < 127 && x.Val != '\'' {
			b.WriteByte('\'')
			b.WriteByte(byte(x.Val))
			b.WriteByte('\'')
		} else {
			printInt(b, x.Val)
		}
	case *Call:
		b.WriteString(x.Name)
		b.WriteString("()")
	case *Mem:
		b.WriteString("Mb[")
		printExpr(b, x.Addr, 0)
		b.WriteString("]")
	case *Un:
		b.WriteString(x.Op.String())
		if x.Op == OpNot {
			b.WriteString(" ")
		}
		// Operand must bind at least as tightly as the unary itself;
		// "- -x" needs the space, handled by Op strings above for not.
		printExpr(b, x.X, p+1)
	case *Bin:
		// Left-associative operators let the left child share their
		// precedence; comparisons are non-associative in the grammar, so a
		// comparison under a comparison needs parentheses on either side.
		leftPrec := p
		if x.Op.IsComparison() {
			leftPrec = p + 1
		}
		printExpr(b, x.X, leftPrec)
		b.WriteString(" ")
		b.WriteString(x.Op.String())
		b.WriteString(" ")
		printExpr(b, x.Y, p+1)
	default:
		panic(fmt.Sprintf("isps: unknown expression type %T", e))
	}
	if paren {
		b.WriteString(")")
	}
}

// StmtString renders a single statement (and any nested blocks) as source
// text with no leading indentation, primarily for diagnostics.
func StmtString(s Stmt) string {
	var b strings.Builder
	printStmt(&b, s, 0)
	return strings.TrimSuffix(b.String(), "\n")
}
