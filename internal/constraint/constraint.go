// Package constraint represents the conditions EXTRA discovers during an
// analysis, under which an exotic instruction implements a language
// operator (paper section 3). The code generator must satisfy or verify
// them before emitting the instruction (paper section 6).
//
// The paper's EXTRA handles three simple constraint forms — a fixed operand
// value, an operand range, and an operand offset (coding) — and explicitly
// cannot handle multi-operand predicates such as the Pascal no-overlap
// condition (section 4.3). This package also defines the predicate form so
// the reproduction's extended mode can implement the paper's first "future
// research" direction.
package constraint

import (
	"context"
	"fmt"
	"slices"

	"extra/internal/interp"
	"extra/internal/isps"
)

// Kind discriminates constraint forms.
type Kind int

// Constraint kinds.
const (
	// Value constrains an operand to a fixed value, e.g. df = 0 ("an
	// operand is constrained to have a certain value").
	Value Kind = iota
	// Range constrains an operand to an interval, e.g. a string length
	// bound to cx<15:0> must fit in 16 bits.
	Range
	// Offset is a coding constraint: the compiler must add Delta to the
	// operator's operand before loading it into the instruction's field,
	// e.g. IBM 370 mvc stores length-1.
	Offset
	// Predicate is a multi-operand condition written as a boolean
	// expression over operands, e.g. the no-overlap condition. The paper's
	// EXTRA cannot represent these; only this reproduction's extended mode
	// uses them.
	Predicate
)

func (k Kind) String() string {
	switch k {
	case Value:
		return "value"
	case Range:
		return "range"
	case Offset:
		return "offset"
	case Predicate:
		return "predicate"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Constraint is one discovered condition.
type Constraint struct {
	Kind    Kind
	Operand string // operand name; empty for Predicate
	// Val is the required value (Value kind).
	Val uint64
	// Min and Max bound the operand inclusively (Range kind).
	Min, Max uint64
	// Delta is added to the operator's operand to produce the encoded
	// instruction operand (Offset kind).
	Delta int64
	// Pred is a boolean expression over operand names in description
	// syntax (Predicate kind).
	Pred string
	// Note says where the constraint came from.
	Note string
}

// NewValue builds a fixed-value constraint.
func NewValue(operand string, val uint64, note string) Constraint {
	return Constraint{Kind: Value, Operand: operand, Val: val, Note: note}
}

// NewRange builds an interval constraint.
func NewRange(operand string, min, max uint64, note string) Constraint {
	return Constraint{Kind: Range, Operand: operand, Min: min, Max: max, Note: note}
}

// NewBits builds the interval constraint "fits in an n-bit field".
func NewBits(operand string, bits int, note string) Constraint {
	if bits <= 0 || bits >= 64 {
		return NewRange(operand, 0, ^uint64(0), note)
	}
	return NewRange(operand, 0, 1<<uint(bits)-1, note)
}

// NewOffset builds a coding constraint: encoded = operand + delta.
func NewOffset(operand string, delta int64, note string) Constraint {
	return Constraint{Kind: Offset, Operand: operand, Delta: delta, Note: note}
}

// NewPredicate builds a multi-operand predicate constraint from an
// expression in description syntax.
func NewPredicate(pred, note string) Constraint {
	return Constraint{Kind: Predicate, Pred: pred, Note: note}
}

func (c Constraint) String() string {
	var body string
	switch c.Kind {
	case Value:
		body = fmt.Sprintf("%s = %d", c.Operand, c.Val)
	case Range:
		body = fmt.Sprintf("%d <= %s <= %d", c.Min, c.Operand, c.Max)
	case Offset:
		body = fmt.Sprintf("%s encoded as %s%+d", c.Operand, c.Operand, c.Delta)
	case Predicate:
		body = c.Pred
	}
	if c.Note != "" {
		return fmt.Sprintf("%s  (%s)", body, c.Note)
	}
	return body
}

// Satisfied evaluates the constraint against concrete operand values, as a
// one-shot Compile over env's names. For Offset constraints it checks
// nothing (they are compiler directives, not conditions) and returns true.
func (c Constraint) Satisfied(env map[string]uint64) (bool, error) {
	pos := make(map[string]int, len(env))
	vals := make([]uint64, 0, len(env))
	for name, v := range env {
		pos[name] = len(vals)
		vals = append(vals, v)
	}
	// Only a value or a range reads its operand: an offset holds, and an
	// unknown kind fails, with or without one.
	k, ok := c.Compile(pos)
	if !ok && (c.Kind == Value || c.Kind == Range) {
		return false, fmt.Errorf("constraint: no value for operand %q", c.Operand)
	}
	return k.Satisfied(vals)
}

// Compiled is a constraint prepared for checking against many operand
// vectors: its operand names are bound to positions in the vector, and a
// predicate is parsed and compiled once, so each check reads the vector by
// index and costs at most one interpreter run, with no parse and no name
// lookup. A predicate's checks reuse one interpreter Runner and operand
// buffer, so a Compiled (and every copy of it) is for one goroutine;
// compile one per goroutine.
type Compiled struct {
	Constraint
	at   int        // Value and Range: the operand's position
	pred *predicate // Predicate kind only
}

// Compile prepares c for checks against operand vectors in which the
// operand named n is at position pos[n]. It reports false, and c is not to
// be checked, when c is not a predicate and its operand has no position: a
// constraint on an operand that neither input list carries any longer (a
// fixed flag, a re-encoded field) is satisfied by construction. A predicate
// that does not parse, or names an operand with no position, compiles to a
// check that fails with that error.
func (c Constraint) Compile(pos map[string]int) (Compiled, bool) {
	k := Compiled{Constraint: c}
	if c.Kind == Predicate {
		k.pred = compilePredicate(c.Pred, pos)
		return k, true
	}
	at, ok := pos[c.Operand]
	k.at = at
	return k, ok
}

// Satisfied evaluates the compiled constraint against an operand vector
// laid out as Compile's positions say.
func (c *Compiled) Satisfied(in []uint64) (bool, error) {
	switch c.Kind {
	case Value:
		return in[c.at] == c.Val, nil
	case Range:
		return c.Min <= in[c.at] && in[c.at] <= c.Max, nil
	case Offset:
		return true, nil
	case Predicate:
		return c.pred.eval(in)
	}
	return false, fmt.Errorf("constraint: unknown kind %v", c.Kind)
}

// predicate is a predicate expression compiled for evaluation: the operand
// positions it reads, one per name in first-occurrence order, and a runner
// of a program that inputs them and outputs the expression. Every
// evaluation reuses the runner, the operand buffer vals and the empty
// state. A predicate that does not compile, or names an operand with no
// position, keeps its error for eval to report.
type predicate struct {
	at    []int
	run   *interp.Runner
	vals  []uint64
	state interp.State
	err   error
}

// compilePredicate parses pred once, as the single output of a one-statement
// routine, puts an input statement for its operands in front, and binds
// each operand to its position in pos. The operands need no declarations:
// an undeclared register is unbounded, the same as one declared integer.
func compilePredicate(pred string, pos map[string]int) *predicate {
	p := &predicate{}
	d, err := isps.Parse("pred.operation := begin\n** P **\npred.execute := begin\noutput (" + pred + ");\nend\nend")
	if err != nil {
		p.err = fmt.Errorf("constraint: cannot parse predicate %q: %v", pred, err)
		return p
	}
	r := d.Routine()
	var out *isps.OutputStmt
	if r != nil && len(r.Body.Stmts) == 1 {
		out, _ = r.Body.Stmts[0].(*isps.OutputStmt)
	}
	if out == nil || len(out.Exprs) != 1 {
		p.err = fmt.Errorf("constraint: bad predicate %q: not a single expression", pred)
		return p
	}
	var names []string
	isps.Visit(out.Exprs[0], func(n isps.Node) bool {
		if id, ok := n.(*isps.Ident); ok && !slices.Contains(names, id.Name) {
			names = append(names, id.Name)
		}
		return true
	})
	for _, n := range names {
		at, ok := pos[n]
		if !ok {
			p.err = fmt.Errorf("constraint: no value for operand %q in predicate %q", n, pred)
			return p
		}
		p.at = append(p.at, at)
	}
	if len(names) > 0 {
		r.Body.Stmts = []isps.Stmt{&isps.InputStmt{Names: names}, out}
	}
	p.run = interp.Compile(d).NewRunner()
	p.vals = make([]uint64, len(names))
	return p
}

func (p *predicate) eval(in []uint64) (bool, error) {
	if p.err != nil {
		return false, p.err
	}
	for i, at := range p.at {
		p.vals[i] = in[at]
	}
	// A predicate's registers are its operands; nothing reads them back,
	// and an expression writes no memory.
	res, err := p.run.Run(context.TODO(), p.vals, &p.state, 10000)
	if err != nil {
		return false, err
	}
	return res.Outputs[0] != 0, nil
}
