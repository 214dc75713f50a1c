// Package equiv implements EXTRA's common-form check: two descriptions are
// equivalent when they are identical except for variable and register names
// (paper section 3). Matching walks both routine bodies in lockstep,
// accumulating a bijective binding from operator variables to instruction
// registers; declared widths of bound pairs then yield the range
// constraints the paper derives from register sizes ("the operands will be
// constrained to have values in the range determined by the size of the
// register").
package equiv

import (
	"fmt"
	"sort"

	"extra/internal/constraint"
	"extra/internal/isps"
	"extra/internal/obs"
)

// Match is the result of a successful common-form comparison.
type Match struct {
	// VarMap maps operator variable names to instruction register names.
	VarMap map[string]string
	// Constraints are the range constraints induced by binding unbounded
	// or wide operator variables to finite instruction registers.
	Constraints []constraint.Constraint
}

// MismatchError reports the first structural difference found.
type MismatchError struct {
	Path isps.Path
	Msg  string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("equiv: descriptions differ at %s: %s", e.Path, e.Msg)
}

type matcher struct {
	op, ins *isps.Description
	fwd     map[string]string // operator name -> instruction name
	rev     map[string]string
}

// CommonForm checks that op and ins are in common form and returns the
// binding. Both descriptions must be fully inlined (no function
// declarations may remain in use). Each comparison is counted in the
// process metrics registry, with the operand-mapping size on success.
func CommonForm(op, ins *isps.Description) (*Match, error) {
	m, err := commonForm(op, ins)
	r := obs.Default()
	if err != nil {
		r.Inc("equiv.compare", "mismatch")
		return nil, err
	}
	r.Inc("equiv.compare", "ok")
	r.Observe("equiv.mapping.size", "", uint64(len(m.VarMap)))
	return m, nil
}

// Reflexive checks that the matcher accepts d against itself, binding every
// variable to itself. A failure means d has drifted outside the matcher's
// accepted language (a node kind the walk cannot compare, a declaration
// shape it rejects) — a regression the inverse-mode sweep checks for every
// catalog description, since such a description could never be re-proven.
// Descriptions that still contain function calls are outside the matcher's
// precondition (CommonForm requires full inlining), so the check is
// vacuously satisfied for them.
func Reflexive(d *isps.Description) error {
	if !fullyInlined(d) {
		return nil
	}
	m, err := CommonForm(d, d)
	if err != nil {
		return err
	}
	for v, r := range m.VarMap {
		if v != r {
			return fmt.Errorf("equiv: self-match bound %q to %q", v, r)
		}
	}
	return nil
}

// fullyInlined reports whether no declared function of d is still called —
// the matcher's precondition.
func fullyInlined(d *isps.Description) bool {
	for _, f := range d.Funcs() {
		called := false
		isps.Visit(d, func(n isps.Node) bool {
			if c, ok := n.(*isps.Call); ok && c.Name == f.Name {
				called = true
			}
			return !called
		})
		if called {
			return false
		}
	}
	return true
}

func commonForm(op, ins *isps.Description) (*Match, error) {
	opR, insR := op.Routine(), ins.Routine()
	if opR == nil || insR == nil {
		return nil, fmt.Errorf("equiv: a description has no routine")
	}
	m := &matcher{op: op, ins: ins, fwd: map[string]string{}, rev: map[string]string{}}
	if err := m.node(opR.Body, insR.Body, isps.Path{}); err != nil {
		return nil, err
	}
	// Called functions would make the walk incomplete; require none.
	for _, d := range []*isps.Description{op, ins} {
		for _, f := range d.Funcs() {
			called := false
			isps.Visit(d, func(n isps.Node) bool {
				if c, ok := n.(*isps.Call); ok && c.Name == f.Name {
					called = true
				}
				return !called
			})
			if called {
				return nil, fmt.Errorf("equiv: %s still calls %s(); inline before matching", d.Name, f.Name)
			}
		}
	}
	res := &Match{VarMap: map[string]string{}}
	for k, v := range m.fwd {
		res.VarMap[k] = v
	}
	res.Constraints = m.widthConstraints()
	return res, nil
}

// bind records a name correspondence, enforcing bijectivity.
func (m *matcher) bind(opName, insName string, at isps.Path) error {
	if prev, ok := m.fwd[opName]; ok && prev != insName {
		return &MismatchError{at, fmt.Sprintf("operator variable %s is bound to both %s and %s", opName, prev, insName)}
	}
	if prev, ok := m.rev[insName]; ok && prev != opName {
		return &MismatchError{at, fmt.Sprintf("instruction register %s is bound to both %s and %s", insName, prev, opName)}
	}
	m.fwd[opName] = insName
	m.rev[insName] = opName
	return nil
}

func (m *matcher) node(a, b isps.Node, at isps.Path) error {
	switch x := a.(type) {
	case *isps.Ident:
		y, ok := b.(*isps.Ident)
		if !ok {
			return &MismatchError{at, fmt.Sprintf("variable %s vs %T", x.Name, b)}
		}
		return m.bind(x.Name, y.Name, at)
	case *isps.Num:
		y, ok := b.(*isps.Num)
		if !ok || x.Val != y.Val {
			return &MismatchError{at, fmt.Sprintf("constant %d vs %s", x.Val, nodeDesc(b))}
		}
		return nil
	case *isps.Bin:
		y, ok := b.(*isps.Bin)
		if !ok || x.Op != y.Op {
			return &MismatchError{at, fmt.Sprintf("%s operation vs %s", x.Op, nodeDesc(b))}
		}
		if err := m.node(x.X, y.X, at.Child(0)); err != nil {
			return err
		}
		return m.node(x.Y, y.Y, at.Child(1))
	case *isps.Un:
		y, ok := b.(*isps.Un)
		if !ok || x.Op != y.Op {
			return &MismatchError{at, fmt.Sprintf("%s operation vs %s", x.Op, nodeDesc(b))}
		}
		return m.node(x.X, y.X, at.Child(0))
	case *isps.Mem:
		y, ok := b.(*isps.Mem)
		if !ok {
			return &MismatchError{at, fmt.Sprintf("memory reference vs %s", nodeDesc(b))}
		}
		return m.node(x.Addr, y.Addr, at.Child(0))
	case *isps.Call:
		y, ok := b.(*isps.Call)
		if !ok {
			return &MismatchError{at, fmt.Sprintf("call %s() vs %s", x.Name, nodeDesc(b))}
		}
		return m.bind(x.Name, y.Name, at)
	case *isps.Block:
		y, ok := b.(*isps.Block)
		if !ok {
			return &MismatchError{at, fmt.Sprintf("block vs %s", nodeDesc(b))}
		}
		if len(x.Stmts) != len(y.Stmts) {
			return &MismatchError{at, fmt.Sprintf("block lengths differ: %d vs %d statements", len(x.Stmts), len(y.Stmts))}
		}
		for i := range x.Stmts {
			if err := m.node(x.Stmts[i], y.Stmts[i], at.Child(i)); err != nil {
				return err
			}
		}
		return nil
	case *isps.AssignStmt:
		y, ok := b.(*isps.AssignStmt)
		if !ok {
			return &MismatchError{at, fmt.Sprintf("assignment vs %s", nodeDesc(b))}
		}
		if err := m.node(x.LHS, y.LHS, at.Child(0)); err != nil {
			return err
		}
		return m.node(x.RHS, y.RHS, at.Child(1))
	case *isps.IfStmt:
		y, ok := b.(*isps.IfStmt)
		if !ok {
			return &MismatchError{at, fmt.Sprintf("conditional vs %s", nodeDesc(b))}
		}
		if err := m.node(x.Cond, y.Cond, at.Child(0)); err != nil {
			return err
		}
		if err := m.node(x.Then, y.Then, at.Child(1)); err != nil {
			return err
		}
		return m.node(x.Else, y.Else, at.Child(2))
	case *isps.RepeatStmt:
		y, ok := b.(*isps.RepeatStmt)
		if !ok {
			return &MismatchError{at, fmt.Sprintf("loop vs %s", nodeDesc(b))}
		}
		return m.node(x.Body, y.Body, at.Child(0))
	case *isps.ExitWhenStmt:
		y, ok := b.(*isps.ExitWhenStmt)
		if !ok {
			return &MismatchError{at, fmt.Sprintf("exit_when vs %s", nodeDesc(b))}
		}
		return m.node(x.Cond, y.Cond, at.Child(0))
	case *isps.AssertStmt:
		y, ok := b.(*isps.AssertStmt)
		if !ok {
			return &MismatchError{at, fmt.Sprintf("assertion vs %s", nodeDesc(b))}
		}
		return m.node(x.Cond, y.Cond, at.Child(0))
	case *isps.InputStmt:
		y, ok := b.(*isps.InputStmt)
		if !ok {
			return &MismatchError{at, fmt.Sprintf("input statement vs %s", nodeDesc(b))}
		}
		if len(x.Names) != len(y.Names) {
			return &MismatchError{at, fmt.Sprintf("input arities differ: %d vs %d", len(x.Names), len(y.Names))}
		}
		for i := range x.Names {
			if err := m.bind(x.Names[i], y.Names[i], at); err != nil {
				return err
			}
		}
		return nil
	case *isps.OutputStmt:
		y, ok := b.(*isps.OutputStmt)
		if !ok {
			return &MismatchError{at, fmt.Sprintf("output statement vs %s", nodeDesc(b))}
		}
		if len(x.Exprs) != len(y.Exprs) {
			return &MismatchError{at, fmt.Sprintf("output arities differ: %d vs %d", len(x.Exprs), len(y.Exprs))}
		}
		for i := range x.Exprs {
			if err := m.node(x.Exprs[i], y.Exprs[i], at.Child(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return &MismatchError{at, fmt.Sprintf("unsupported node %T", a)}
}

func nodeDesc(n isps.Node) string {
	switch x := n.(type) {
	case *isps.Ident:
		return "variable " + x.Name
	case *isps.Num:
		return fmt.Sprintf("constant %d", x.Val)
	case *isps.Bin:
		return x.Op.String() + " operation"
	case *isps.Un:
		return x.Op.String() + " operation"
	case *isps.Mem:
		return "memory reference"
	case *isps.Call:
		return "call " + x.Name + "()"
	default:
		return fmt.Sprintf("%T", n)
	}
}

// widthConstraints derives range constraints from the widths of bound
// declaration pairs: when an operator variable is wider (or unbounded) and
// the instruction register is finite, the operator operand must fit the
// register.
func (m *matcher) widthConstraints() []constraint.Constraint {
	var out []constraint.Constraint
	names := make([]string, 0, len(m.fwd))
	for k := range m.fwd {
		names = append(names, k)
	}
	sort.Strings(names)
	opInputs := map[string]bool{}
	for _, n := range m.op.Inputs() {
		opInputs[n] = true
	}
	for _, opName := range names {
		insName := m.fwd[opName]
		opW := declWidth(m.op, opName)
		insW := declWidth(m.ins, insName)
		if insW == 0 {
			continue // unbounded register: no restriction
		}
		if opW != 0 && opW <= insW {
			continue // the operator value always fits
		}
		if !opInputs[opName] {
			continue // internal variables are not operands
		}
		out = append(out, constraint.NewBits(opName, insW,
			fmt.Sprintf("%s is bound to the %d-bit register %s", opName, insW, insName)))
	}
	return out
}

func declWidth(d *isps.Description, name string) int {
	if r := d.Reg(name); r != nil {
		return r.Width
	}
	if f := d.Func(name); f != nil {
		return f.Width
	}
	return 0
}
