package interp_test

import (
	"context"
	"errors"
	"fmt"

	"extra/internal/interp"
	"extra/internal/isps"
)

// This file keeps a tree-walking interpreter as the reference that
// TestCompiledMatchesReference and FuzzInterpReference compare Program
// runs against. It re-resolves every name on every execution and carries
// exit_when as an error: slow, but plainly the language's semantics, which
// is what a reference is for. Memory is one flat map holding the whole
// image, and the walker notes each address it writes the first time it
// writes it.

// refState is the reference walker's machine state: registers, a flat
// memory, and the addresses written, each once, in the order of first
// write.
type refState struct {
	Regs    map[string]uint64
	Mem     map[uint64]byte
	Written []uint64
}

// refRun executes d on state by walking its tree: the state is mutated in
// place and limit <= 0 selects interp.DefaultStepLimit. It records no
// metrics.
func refRun(ctx context.Context, d *isps.Description, inputs []uint64, state *refState, limit int) (*interp.Result, error) {
	if limit <= 0 {
		limit = interp.DefaultStepLimit
	}
	r := d.Routine()
	if r == nil {
		return nil, fmt.Errorf("interp: description %s has no routine", d.Name)
	}
	ex := &refExecer{
		desc:   d,
		widths: map[string]int{},
		funcs:  map[string]*isps.FuncDecl{},
		state:  state,
		wrote:  map[uint64]bool{},
		inputs: inputs,
		limit:  limit,
		ctx:    ctx,
	}
	for _, reg := range d.Regs() {
		ex.widths[reg.Name] = reg.Width
	}
	for _, f := range d.Funcs() {
		ex.funcs[f.Name] = f
		ex.widths[f.Name] = f.Width
	}
	if err := ex.block(r.Body); err != nil {
		return nil, err
	}
	return &interp.Result{Outputs: ex.outputs, Steps: ex.steps}, nil
}

type refExecer struct {
	desc    *isps.Description
	widths  map[string]int
	funcs   map[string]*isps.FuncDecl
	state   *refState
	wrote   map[uint64]bool
	inputs  []uint64
	nextIn  int
	outputs []uint64
	steps   int
	limit   int
	depth   int
	ctx     context.Context
}

// refCtxCheckMask and refMaxCallDepth restate the engine's bounds.
const (
	refCtxCheckMask = 1<<10 - 1
	refMaxCallDepth = 64
)

func refMask(v uint64, width int) uint64 {
	if width <= 0 || width >= 64 {
		return v
	}
	return v & ((1 << uint(width)) - 1)
}

func (ex *refExecer) setReg(name string, v uint64) {
	ex.state.Regs[name] = refMask(v, ex.widths[name])
}

func (ex *refExecer) block(b *isps.Block) error {
	for _, s := range b.Stmts {
		if err := ex.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

// refExit carries the exit_when control transfer up to the innermost
// repeat through the ordinary error return path.
type refExit struct{}

func (*refExit) Error() string { return "interp: exit_when outside of repeat loop" }

func (ex *refExecer) stmt(s isps.Stmt) error {
	ex.steps++
	if ex.steps > ex.limit {
		return interp.ErrStepLimit
	}
	if ex.steps&refCtxCheckMask == 0 {
		if err := ex.ctx.Err(); err != nil {
			return fmt.Errorf("interp: %s interrupted after %d steps: %w", ex.desc.Name, ex.steps, err)
		}
	}
	switch st := s.(type) {
	case *isps.AssignStmt:
		v, err := ex.expr(st.RHS)
		if err != nil {
			return err
		}
		switch lhs := st.LHS.(type) {
		case *isps.Ident:
			ex.setReg(lhs.Name, v)
		case *isps.Mem:
			addr, err := ex.expr(lhs.Addr)
			if err != nil {
				return err
			}
			if !ex.wrote[addr] {
				ex.wrote[addr] = true
				ex.state.Written = append(ex.state.Written, addr)
			}
			ex.state.Mem[addr] = byte(v)
		default:
			return fmt.Errorf("interp: bad assignment target %T", st.LHS)
		}
		return nil
	case *isps.IfStmt:
		c, err := ex.expr(st.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return ex.block(st.Then)
		}
		return ex.block(st.Else)
	case *isps.RepeatStmt:
		// An empty loop spins without executing a statement, so the step
		// budget and the context poll would never stop it.
		if len(st.Body.Stmts) == 0 {
			return interp.ErrStepLimit
		}
		for {
			err := ex.block(st.Body)
			if err == nil {
				continue
			}
			var sig *refExit
			if errors.As(err, &sig) {
				return nil
			}
			return err
		}
	case *isps.ExitWhenStmt:
		c, err := ex.expr(st.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return &refExit{}
		}
		return nil
	case *isps.AssertStmt:
		c, err := ex.expr(st.Cond)
		if err != nil {
			return err
		}
		if c == 0 {
			return &interp.AssertError{Cond: isps.ExprString(st.Cond)}
		}
		return nil
	case *isps.InputStmt:
		for _, name := range st.Names {
			if ex.nextIn >= len(ex.inputs) {
				return fmt.Errorf("interp: %s: input(%s) exhausted the %d supplied operand values",
					ex.desc.Name, name, len(ex.inputs))
			}
			ex.setReg(name, ex.inputs[ex.nextIn])
			ex.nextIn++
		}
		return nil
	case *isps.OutputStmt:
		for _, e := range st.Exprs {
			v, err := ex.expr(e)
			if err != nil {
				return err
			}
			ex.outputs = append(ex.outputs, v)
		}
		return nil
	}
	return fmt.Errorf("interp: unknown statement type %T", s)
}

func refTruth(v uint64) uint64 {
	if v != 0 {
		return 1
	}
	return 0
}

func refBool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (ex *refExecer) expr(e isps.Expr) (uint64, error) {
	switch x := e.(type) {
	case *isps.Num:
		return uint64(x.Val), nil
	case *isps.Ident:
		return ex.state.Regs[x.Name], nil
	case *isps.Mem:
		addr, err := ex.expr(x.Addr)
		if err != nil {
			return 0, err
		}
		return uint64(ex.state.Mem[addr]), nil
	case *isps.Call:
		return ex.call(x.Name)
	case *isps.Un:
		v, err := ex.expr(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case isps.OpNot:
			return 1 - refTruth(v), nil
		case isps.OpNeg:
			return -v, nil
		}
		return 0, fmt.Errorf("interp: unknown unary operator %s", x.Op)
	case *isps.Bin:
		a, err := ex.expr(x.X)
		if err != nil {
			return 0, err
		}
		b, err := ex.expr(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case isps.OpAdd:
			return a + b, nil
		case isps.OpSub:
			return a - b, nil
		case isps.OpMul:
			return a * b, nil
		case isps.OpDiv:
			if b == 0 {
				return 0, fmt.Errorf("interp: division by zero in %s", ex.desc.Name)
			}
			return a / b, nil
		case isps.OpEq:
			return refBool(a == b), nil
		case isps.OpNe:
			return refBool(a != b), nil
		case isps.OpLt:
			return refBool(a < b), nil
		case isps.OpGt:
			return refBool(a > b), nil
		case isps.OpLe:
			return refBool(a <= b), nil
		case isps.OpGe:
			return refBool(a >= b), nil
		case isps.OpAnd:
			return refTruth(a) & refTruth(b), nil
		case isps.OpOr:
			return refTruth(a) | refTruth(b), nil
		case isps.OpXor:
			return refTruth(a) ^ refTruth(b), nil
		}
		return 0, fmt.Errorf("interp: unknown binary operator %s", x.Op)
	}
	return 0, fmt.Errorf("interp: unknown expression type %T", e)
}

func (ex *refExecer) call(name string) (uint64, error) {
	f, ok := ex.funcs[name]
	if !ok {
		return 0, fmt.Errorf("interp: call of undeclared function %s()", name)
	}
	if ex.depth >= refMaxCallDepth {
		return 0, fmt.Errorf("%w at %s()", interp.ErrCallDepth, name)
	}
	ex.depth++
	err := ex.block(f.Body)
	ex.depth--
	if err != nil {
		var sig *refExit
		if errors.As(err, &sig) {
			return 0, fmt.Errorf("interp: exit_when escaped function %s()", name)
		}
		return 0, err
	}
	// The function's value is whatever was last assigned to its own name.
	return ex.state.Regs[name], nil
}
