// Package interp executes ISPS-like descriptions on concrete machine
// states. It provides the ground-truth semantics for the EXTRA analysis: a
// transformation is checked by running the description before and after on
// randomized states and comparing results (the paper verified its results by
// hand against production compilers; differential execution is the
// reproduction's substitute, and a stronger one).
//
// Semantics:
//
//   - Registers hold unsigned values truncated to their declared width;
//     width 0 ("integer") means a full 64-bit value.
//   - Main memory Mb is a sparse byte array indexed by the untruncated
//     address value.
//   - Arithmetic wraps modulo 2^64; relational operators yield 0 or 1;
//     and/or/xor/not are logical (any nonzero value counts as true).
//   - input(...) consumes operand values in order; output(...) appends
//     result values in order.
//   - Niladic functions execute their body on the shared register state;
//     the call's value is the last assignment to the function's own name.
package interp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"extra/internal/fault/inject"
	"extra/internal/isps"
	"extra/internal/obs"
)

// State is a concrete machine state: register values and main memory.
type State struct {
	Regs map[string]uint64
	Mem  map[uint64]byte
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Regs: map[string]uint64{}, Mem: map[uint64]byte{}}
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := NewState()
	for k, v := range s.Regs {
		c.Regs[k] = v
	}
	for k, v := range s.Mem {
		c.Mem[k] = v
	}
	return c
}

// SetString stores the bytes of str into memory starting at addr.
func (s *State) SetString(addr uint64, str string) {
	for i := 0; i < len(str); i++ {
		s.Mem[addr+uint64(i)] = str[i]
	}
}

// ReadString reads n bytes of memory starting at addr.
func (s *State) ReadString(addr uint64, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = s.Mem[addr+uint64(i)]
	}
	return string(b)
}

// Result is the outcome of executing a description.
type Result struct {
	// Outputs are the values produced by output statements, in order.
	Outputs []uint64
	// Steps is the number of statements executed.
	Steps int
}

// ErrStepLimit is returned when execution exceeds the configured budget,
// which usually means a loop that cannot terminate on the given input.
var ErrStepLimit = errors.New("interp: step limit exceeded")

// ErrCallDepth is returned when function calls nest past the fixed depth
// bound. It is wrapped with the offending function's name, so classify
// with errors.Is.
var ErrCallDepth = errors.New("interp: call depth limit exceeded")

// AssertError reports a violated assert statement.
type AssertError struct {
	Cond string
}

func (e *AssertError) Error() string {
	return fmt.Sprintf("interp: assertion failed: %s", e.Cond)
}

type exitSignal struct{}

type execer struct {
	desc    *isps.Description
	widths  map[string]int
	funcs   map[string]*isps.FuncDecl
	state   *State
	inputs  []uint64
	nextIn  int
	outputs []uint64
	steps   int
	limit   int
	depth   int
	// ctx is polled every ctxCheckMask+1 statements so a deadline or
	// cancellation stops a runaway description promptly without taxing
	// the per-statement hot path.
	ctx context.Context
}

// ctxCheckMask gates the cancellation poll to one check per 1024
// statements.
const ctxCheckMask = 1<<10 - 1

// DefaultStepLimit bounds execution when the caller passes limit <= 0.
const DefaultStepLimit = 1 << 20

// Run executes the description's routine against the given state, consuming
// inputs at input statements. The state is mutated in place. limit bounds
// the number of executed statements (<= 0 selects DefaultStepLimit).
// Execution is abandoned (with ctx.Err wrapped in the returned error)
// shortly after ctx is cancelled or its deadline passes. Runs and
// executed-statement counts are recorded per description in the process
// metrics registry.
func Run(ctx context.Context, d *isps.Description, inputs []uint64, state *State, limit int) (*Result, error) {
	start := time.Now()
	res, err := runDesc(ctx, d, inputs, state, limit)
	r := obs.Default()
	if err != nil {
		r.Inc("interp.run.err", d.Name)
	} else {
		r.Inc("interp.run", d.Name)
		r.Observe("interp.steps", d.Name, uint64(res.Steps))
	}
	r.ObserveSince("interp.run.ns", d.Name, start)
	return res, err
}

func runDesc(ctx context.Context, d *isps.Description, inputs []uint64, state *State, limit int) (*Result, error) {
	if limit <= 0 {
		limit = DefaultStepLimit
	}
	// Fault-injection seam: an armed "interp.steplimit" fault replaces the
	// step budget with its (much smaller) payload, modelling budget
	// exhaustion deterministically for chaos tests.
	if f, ok := inject.Fire("interp.steplimit"); ok {
		limit = int(f.Val)
		if limit < 1 {
			limit = 1
		}
	}
	r := d.Routine()
	if r == nil {
		return nil, fmt.Errorf("interp: description %s has no routine", d.Name)
	}
	ex := &execer{
		desc:   d,
		widths: map[string]int{},
		funcs:  map[string]*isps.FuncDecl{},
		state:  state,
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
	return &Result{Outputs: ex.outputs, Steps: ex.steps}, nil
}

func mask(v uint64, width int) uint64 {
	if width <= 0 || width >= 64 {
		return v
	}
	return v & ((1 << uint(width)) - 1)
}

func (ex *execer) setReg(name string, v uint64) {
	ex.state.Regs[name] = mask(v, ex.widths[name])
}

func (ex *execer) block(b *isps.Block) error {
	for _, s := range b.Stmts {
		if err := ex.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

var errExit = errors.New("interp: exit_when outside of repeat loop")

func (ex *execer) stmt(s isps.Stmt) error {
	ex.steps++
	if ex.steps > ex.limit {
		return ErrStepLimit
	}
	if ex.steps&ctxCheckMask == 0 {
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
		for {
			err := ex.block(st.Body)
			if err == nil {
				continue
			}
			var sig *exitWrap
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
			return &exitWrap{}
		}
		return nil
	case *isps.AssertStmt:
		c, err := ex.expr(st.Cond)
		if err != nil {
			return err
		}
		if c == 0 {
			return &AssertError{Cond: isps.ExprString(st.Cond)}
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

// exitWrap carries the exit_when control transfer up to the innermost
// repeat. It implements error so it can flow through the ordinary return
// path without a parallel plumbing mechanism.
type exitWrap struct{}

func (*exitWrap) Error() string { return errExit.Error() }

func truth(v uint64) uint64 {
	if v != 0 {
		return 1
	}
	return 0
}

func (ex *execer) expr(e isps.Expr) (uint64, error) {
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
			return 1 - truth(v), nil
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
			return boolVal(a == b), nil
		case isps.OpNe:
			return boolVal(a != b), nil
		case isps.OpLt:
			return boolVal(a < b), nil
		case isps.OpGt:
			return boolVal(a > b), nil
		case isps.OpLe:
			return boolVal(a <= b), nil
		case isps.OpGe:
			return boolVal(a >= b), nil
		case isps.OpAnd:
			return truth(a) & truth(b), nil
		case isps.OpOr:
			return truth(a) | truth(b), nil
		case isps.OpXor:
			return truth(a) ^ truth(b), nil
		}
		return 0, fmt.Errorf("interp: unknown binary operator %s", x.Op)
	}
	return 0, fmt.Errorf("interp: unknown expression type %T", e)
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

const maxCallDepth = 64

func (ex *execer) call(name string) (uint64, error) {
	f, ok := ex.funcs[name]
	if !ok {
		return 0, fmt.Errorf("interp: call of undeclared function %s()", name)
	}
	if ex.depth >= maxCallDepth {
		return 0, fmt.Errorf("%w at %s()", ErrCallDepth, name)
	}
	ex.depth++
	err := ex.block(f.Body)
	ex.depth--
	if err != nil {
		var sig *exitWrap
		if errors.As(err, &sig) {
			return 0, fmt.Errorf("interp: exit_when escaped function %s()", name)
		}
		return 0, err
	}
	// The function's value is whatever was last assigned to its own name.
	return ex.state.Regs[name], nil
}
