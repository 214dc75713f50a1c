// Package isps implements the ISPS-like description language used by EXTRA
// to describe both exotic machine instructions and high-level language
// operators (Morgan & Rowe, "Analyzing Exotic Instructions for a
// Retargetable Code Generator", SIGPLAN '82, section 3).
//
// A description names a register-transfer program: sections of register,
// function and routine declarations. Statements include loops (repeat),
// conditionals (if), loop exits (exit_when), and explicit i/o (input and
// output). Main memory is the byte array Mb. The language is restricted to
// eliminate aliasing (call-by-value only, niladic functions), which keeps
// the data flow computations used by the transformation library simple.
//
// Nodes are hash-consed: Intern canonicalizes a tree so structurally equal
// subtrees become the same pointer, with the 128-bit structural digest
// memoized on the node. Interned nodes are immutable, and no node has a
// method that writes to it: a tree changes through the persistent-update
// API (ReplaceAt, SpliceAtDesc, Rewrite), which rebuilds the spines above
// the edits and shares everything else.
package isps

import "fmt"

// Node is implemented by every AST node. Children are addressed by a dense
// index so that transformations can navigate and rewrite descriptions with
// Path cursors, the same way EXTRA's structure editor positioned its cursor.
// The set of node types is closed: the unexported method is promoted from
// the embedded hash-consing state, so only this package's types are Nodes.
type Node interface {
	// NumChildren reports how many child nodes this node has.
	NumChildren() int
	// Child returns the i-th child node. It panics if i is out of range.
	Child(i int) Node
	nodeMeta() *meta
}

// Expr is the interface implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Stmt is the interface implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Decl is the interface implemented by declaration nodes.
type Decl interface {
	Node
	// DeclName returns the declared name.
	DeclName() string
	declNode()
}

// Description is a complete ISPS-like description of an instruction or a
// language operator, e.g. "scasb.instruction := begin ... end".
type Description struct {
	meta
	// Name is the full dotted name, e.g. "scasb.instruction" or
	// "index.operation".
	Name string
	// Sections in declaration order, e.g. SOURCE.ACCESS, STATE,
	// STRING.PROCESS.
	Sections []*Section
}

// Section is a named group of declarations, written "** NAME **".
type Section struct {
	meta
	Name  string
	Decls []Decl
}

// RegDecl declares a register or operator variable.
//
// Three width forms occur in the paper's figures:
//
//	di<15:0>        a 16-bit register
//	zf<>            a 1-bit flag
//	Src.Base: integer   an unbounded operator variable
//	ch: character       an 8-bit operator variable
type RegDecl struct {
	meta
	Name string
	// Width is the width in bits; 0 means unbounded ("integer").
	Width int
	// Comment is the trailing "!" comment, kept for figure-faithful
	// printing.
	Comment string
}

// FuncDecl declares a niladic value-returning function such as read() or
// fetch(). The function's value is whatever was last assigned to its own
// name inside the body; calls may have side effects on registers.
type FuncDecl struct {
	meta
	Name string
	// Width is the width in bits of the returned value; 0 means unbounded.
	Width   int
	Comment string
	Body    *Block
}

// RoutineDecl declares the executable routine of a description, e.g.
// scasb.execute or index.execute. A description's entry point is its single
// routine.
type RoutineDecl struct {
	meta
	Name string
	Body *Block
}

// Block is a statement sequence delimited by begin/end (or then/else bodies,
// or a repeat body).
type Block struct {
	meta
	Stmts []Stmt
}

// AssignStmt is "lhs <- rhs;". LHS is an Ident or a Mem reference.
type AssignStmt struct {
	meta
	LHS Expr
	RHS Expr
}

// IfStmt is "if cond then ... else ... end_if". Else is never nil; an empty
// else block prints as no else clause.
type IfStmt struct {
	meta
	Cond Expr
	Then *Block
	Else *Block
}

// RepeatStmt is "repeat ... end_repeat", an infinite loop terminated only by
// exit_when statements in its body.
type RepeatStmt struct {
	meta
	Body *Block
}

// ExitWhenStmt is "exit_when (cond);". It exits the innermost repeat loop
// when cond is true (nonzero).
type ExitWhenStmt struct {
	meta
	Cond Expr
}

// InputStmt is "input(a, b, c);", declaring the operands the description
// consumes, in order.
type InputStmt struct {
	meta
	Names []string
}

// OutputStmt is "output(e1, e2);", producing the description's results, in
// order.
type OutputStmt struct {
	meta
	Exprs []Expr
}

// AssertStmt is "assert (cond);": an auxiliary assertion introduced and
// manipulated by constraint-and-assertion transformations (paper section 5).
// Assertions are proof annotations; the interpreter checks them.
type AssertStmt struct {
	meta
	Cond Expr
}

// Op is a unary or binary operator.
type Op int

// Operators of the description language.
const (
	OpAdd Op = iota // +
	OpSub           // -
	OpMul           // *
	OpDiv           // /
	OpEq            // =
	OpNe            // <>
	OpLt            // <
	OpGt            // >
	OpLe            // <=
	OpGe            // >=
	OpAnd           // and
	OpOr            // or
	OpXor           // xor
	OpNot           // not (unary)
	OpNeg           // - (unary)
)

var opStrings = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpGt: ">", OpLe: "<=", OpGe: ">=",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not", OpNeg: "-",
}

func (o Op) String() string {
	if o >= 0 && int(o) < len(opStrings) {
		return opStrings[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsComparison reports whether o is one of the relational operators, which
// always evaluate to 0 or 1.
func (o Op) IsComparison() bool {
	switch o {
	case OpEq, OpNe, OpLt, OpGt, OpLe, OpGe:
		return true
	}
	return false
}

// IsBoolean reports whether o is a logical connective.
func (o Op) IsBoolean() bool {
	switch o {
	case OpAnd, OpOr, OpXor, OpNot:
		return true
	}
	return false
}

// Ident is a variable or register reference such as di or Src.Length.
type Ident struct {
	meta
	Name string
}

// Num is an integer literal. Character literals like 'a' are numbers with
// IsChar set, so they print back as characters.
type Num struct {
	meta
	Val    int64
	IsChar bool
}

// Bin is a binary operation "x op y".
type Bin struct {
	meta
	Op   Op
	X, Y Expr
}

// Un is a unary operation "op x" (not, or arithmetic negation).
type Un struct {
	meta
	Op Op
	X  Expr
}

// Mem is a main-memory byte reference "Mb[addr]".
type Mem struct {
	meta
	Addr Expr
}

// Call is a niladic function call such as fetch() or read().
type Call struct {
	meta
	Name string
}

func (*Ident) exprNode() {}
func (*Num) exprNode()   {}
func (*Bin) exprNode()   {}
func (*Un) exprNode()    {}
func (*Mem) exprNode()   {}
func (*Call) exprNode()  {}

func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*RepeatStmt) stmtNode()   {}
func (*ExitWhenStmt) stmtNode() {}
func (*InputStmt) stmtNode()    {}
func (*OutputStmt) stmtNode()   {}
func (*AssertStmt) stmtNode()   {}

func (*RegDecl) declNode()     {}
func (*FuncDecl) declNode()    {}
func (*RoutineDecl) declNode() {}

// DeclName returns the declared register name.
func (d *RegDecl) DeclName() string { return d.Name }

// DeclName returns the declared function name.
func (d *FuncDecl) DeclName() string { return d.Name }

// DeclName returns the declared routine name.
func (d *RoutineDecl) DeclName() string { return d.Name }

func childOutOfRange(n Node, i int) string {
	return fmt.Sprintf("isps: child index %d out of range for %T", i, n)
}

// NumChildren returns the number of sections.
func (d *Description) NumChildren() int { return len(d.Sections) }

// Child returns the i-th section.
func (d *Description) Child(i int) Node { return d.Sections[i] }

// NumChildren returns the number of declarations.
func (s *Section) NumChildren() int { return len(s.Decls) }

// Child returns the i-th declaration.
func (s *Section) Child(i int) Node { return s.Decls[i] }

// NumChildren returns 0: register declarations are leaves.
func (d *RegDecl) NumChildren() int { return 0 }

// Child panics: register declarations are leaves.
func (d *RegDecl) Child(i int) Node { panic(childOutOfRange(d, i)) }

// NumChildren returns 1 (the body).
func (d *FuncDecl) NumChildren() int { return 1 }

// Child returns the body.
func (d *FuncDecl) Child(i int) Node {
	if i != 0 {
		panic(childOutOfRange(d, i))
	}
	return d.Body
}

// NumChildren returns 1 (the body).
func (d *RoutineDecl) NumChildren() int { return 1 }

// Child returns the body.
func (d *RoutineDecl) Child(i int) Node {
	if i != 0 {
		panic(childOutOfRange(d, i))
	}
	return d.Body
}

// NumChildren returns the number of statements.
func (b *Block) NumChildren() int { return len(b.Stmts) }

// Child returns the i-th statement.
func (b *Block) Child(i int) Node { return b.Stmts[i] }

// NumChildren returns 2 (LHS and RHS).
func (s *AssignStmt) NumChildren() int { return 2 }

// Child returns LHS (0) or RHS (1).
func (s *AssignStmt) Child(i int) Node {
	switch i {
	case 0:
		return s.LHS
	case 1:
		return s.RHS
	}
	panic(childOutOfRange(s, i))
}

// NumChildren returns 3 (cond, then, else).
func (s *IfStmt) NumChildren() int { return 3 }

// Child returns Cond (0), Then (1) or Else (2).
func (s *IfStmt) Child(i int) Node {
	switch i {
	case 0:
		return s.Cond
	case 1:
		return s.Then
	case 2:
		return s.Else
	}
	panic(childOutOfRange(s, i))
}

// NumChildren returns 1 (the body).
func (s *RepeatStmt) NumChildren() int { return 1 }

// Child returns the body.
func (s *RepeatStmt) Child(i int) Node {
	if i != 0 {
		panic(childOutOfRange(s, i))
	}
	return s.Body
}

// NumChildren returns 1 (the condition).
func (s *ExitWhenStmt) NumChildren() int { return 1 }

// Child returns the condition.
func (s *ExitWhenStmt) Child(i int) Node {
	if i != 0 {
		panic(childOutOfRange(s, i))
	}
	return s.Cond
}

// NumChildren returns 0: operand names are not expression children.
func (s *InputStmt) NumChildren() int { return 0 }

// Child panics: input statements are leaves.
func (s *InputStmt) Child(i int) Node { panic(childOutOfRange(s, i)) }

// NumChildren returns the number of result expressions.
func (s *OutputStmt) NumChildren() int { return len(s.Exprs) }

// Child returns the i-th result expression.
func (s *OutputStmt) Child(i int) Node { return s.Exprs[i] }

// NumChildren returns 1 (the condition).
func (s *AssertStmt) NumChildren() int { return 1 }

// Child returns the condition.
func (s *AssertStmt) Child(i int) Node {
	if i != 0 {
		panic(childOutOfRange(s, i))
	}
	return s.Cond
}

// NumChildren returns 0.
func (e *Ident) NumChildren() int { return 0 }

// Child panics: identifiers are leaves.
func (e *Ident) Child(i int) Node { panic(childOutOfRange(e, i)) }

// NumChildren returns 0.
func (e *Num) NumChildren() int { return 0 }

// Child panics: literals are leaves.
func (e *Num) Child(i int) Node { panic(childOutOfRange(e, i)) }

// NumChildren returns 2.
func (e *Bin) NumChildren() int { return 2 }

// Child returns X (0) or Y (1).
func (e *Bin) Child(i int) Node {
	switch i {
	case 0:
		return e.X
	case 1:
		return e.Y
	}
	panic(childOutOfRange(e, i))
}

// NumChildren returns 1.
func (e *Un) NumChildren() int { return 1 }

// Child returns the operand.
func (e *Un) Child(i int) Node {
	if i != 0 {
		panic(childOutOfRange(e, i))
	}
	return e.X
}

// NumChildren returns 1.
func (e *Mem) NumChildren() int { return 1 }

// Child returns the address expression.
func (e *Mem) Child(i int) Node {
	if i != 0 {
		panic(childOutOfRange(e, i))
	}
	return e.Addr
}

// NumChildren returns 0: calls are niladic.
func (e *Call) NumChildren() int { return 0 }

// Child panics: calls are leaves.
func (e *Call) Child(i int) Node { panic(childOutOfRange(e, i)) }

// Routine returns the description's single executable routine, or nil if it
// has none.
func (d *Description) Routine() *RoutineDecl {
	for _, s := range d.Sections {
		for _, dec := range s.Decls {
			if r, ok := dec.(*RoutineDecl); ok {
				return r
			}
		}
	}
	return nil
}

// Func returns the function declaration with the given name, or nil.
func (d *Description) Func(name string) *FuncDecl {
	for _, s := range d.Sections {
		for _, dec := range s.Decls {
			if f, ok := dec.(*FuncDecl); ok && f.Name == name {
				return f
			}
		}
	}
	return nil
}

// Reg returns the register declaration with the given name, or nil.
func (d *Description) Reg(name string) *RegDecl {
	for _, s := range d.Sections {
		for _, dec := range s.Decls {
			if r, ok := dec.(*RegDecl); ok && r.Name == name {
				return r
			}
		}
	}
	return nil
}

// Regs returns all register declarations in section order.
func (d *Description) Regs() []*RegDecl {
	var out []*RegDecl
	for _, s := range d.Sections {
		for _, dec := range s.Decls {
			if r, ok := dec.(*RegDecl); ok {
				out = append(out, r)
			}
		}
	}
	return out
}

// Funcs returns all function declarations in section order.
func (d *Description) Funcs() []*FuncDecl {
	var out []*FuncDecl
	for _, s := range d.Sections {
		for _, dec := range s.Decls {
			if f, ok := dec.(*FuncDecl); ok {
				out = append(out, f)
			}
		}
	}
	return out
}

// Inputs returns the names of the description's input statement operands, in
// order. It returns nil when the routine has no input statement.
func (d *Description) Inputs() []string {
	r := d.Routine()
	if r == nil {
		return nil
	}
	for _, s := range r.Body.Stmts {
		if in, ok := s.(*InputStmt); ok {
			return append([]string(nil), in.Names...)
		}
	}
	return nil
}
