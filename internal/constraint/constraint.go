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

// Satisfied evaluates the constraint against concrete operand values. For
// Offset constraints it checks nothing (they are compiler directives, not
// conditions) and returns true.
func (c Constraint) Satisfied(env map[string]uint64) (bool, error) {
	switch c.Kind {
	case Value:
		v, ok := env[c.Operand]
		if !ok {
			return false, fmt.Errorf("constraint: no value for operand %q", c.Operand)
		}
		return v == c.Val, nil
	case Range:
		v, ok := env[c.Operand]
		if !ok {
			return false, fmt.Errorf("constraint: no value for operand %q", c.Operand)
		}
		return c.Min <= v && v <= c.Max, nil
	case Offset:
		return true, nil
	case Predicate:
		v, err := EvalPredicate(c.Pred, env)
		if err != nil {
			return false, err
		}
		return v, nil
	}
	return false, fmt.Errorf("constraint: unknown kind %v", c.Kind)
}

// Compiled is a constraint prepared for checking against many operand
// environments: a predicate is parsed and compiled once, so each check
// costs one interpreter run and no parse.
type Compiled struct {
	Constraint
	pred *predicate // Predicate kind only
}

// Compile prepares c for repeated checks.
func (c Constraint) Compile() Compiled {
	k := Compiled{Constraint: c}
	if c.Kind == Predicate {
		k.pred = compilePredicate(c.Pred)
	}
	return k
}

// Satisfied is Constraint.Satisfied, reusing the compiled predicate.
func (c Compiled) Satisfied(env map[string]uint64) (bool, error) {
	if c.pred != nil {
		return c.pred.eval(env)
	}
	return c.Constraint.Satisfied(env)
}

// EvalPredicate evaluates a boolean expression in description syntax
// against operand values. It works by wrapping the expression in a
// one-statement description and running the interpreter on it.
func EvalPredicate(pred string, env map[string]uint64) (bool, error) {
	return compilePredicate(pred).eval(env)
}

// predicate is a predicate expression compiled for evaluation: the operand
// names it reads, in first-occurrence order, and a program that inputs
// them and outputs the expression. A predicate that does not compile
// keeps its error for eval to report.
type predicate struct {
	src   string
	names []string
	prog  *interp.Program
	err   error
}

// compilePredicate parses pred once, as the single output of a one-statement
// routine, and puts an input statement for its operands in front. The
// operands need no declarations: an undeclared register is unbounded, the
// same as one declared integer.
func compilePredicate(pred string) *predicate {
	p := &predicate{src: pred}
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
	seen := map[string]bool{}
	isps.Walk(out.Exprs[0], func(n isps.Node, _ isps.Path) bool {
		if id, ok := n.(*isps.Ident); ok && !seen[id.Name] {
			seen[id.Name] = true
			p.names = append(p.names, id.Name)
		}
		return true
	})
	if len(p.names) > 0 {
		r.Body.Stmts = []isps.Stmt{&isps.InputStmt{Names: p.names}, out}
	}
	p.prog = interp.Compile(d)
	return p
}

func (p *predicate) eval(env map[string]uint64) (bool, error) {
	if p.err != nil {
		return false, p.err
	}
	vals := make([]uint64, len(p.names))
	for i, n := range p.names {
		v, ok := env[n]
		if !ok {
			return false, fmt.Errorf("constraint: no value for operand %q in predicate %q", n, p.src)
		}
		vals[i] = v
	}
	// A predicate's registers are its operands; nothing reads them back.
	res, err := p.prog.Run(context.TODO(), vals, &interp.State{}, 10000)
	if err != nil {
		return false, err
	}
	return res.Outputs[0] != 0, nil
}

// AllSatisfied reports whether every constraint holds for env; the first
// failing constraint is returned.
func AllSatisfied(cs []Constraint, env map[string]uint64) (bool, *Constraint, error) {
	for i := range cs {
		ok, err := cs[i].Satisfied(env)
		if err != nil {
			return false, &cs[i], err
		}
		if !ok {
			return false, &cs[i], nil
		}
	}
	return true, nil, nil
}
