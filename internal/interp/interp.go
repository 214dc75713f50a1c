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
//
// A description is compiled once into a Program (see Compile) and run
// once per input; Run does both for a one-shot execution.
package interp

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"time"

	"extra/internal/fault/inject"
	"extra/internal/isps"
	"extra/internal/obs"
)

// State is a concrete machine state: register values and main memory.
//
// Memory is an overlay. Mem holds the bytes this state has written (or
// was preset with); Base is an optional read-only image underneath. A read
// of an address not in Mem falls back to Base and then to 0, and writes go
// to Mem only, so any number of states can run over one image without
// copying it.
//
// A nil Regs map means the caller does not observe registers: a run
// starts every register at 0 and drops the final values instead of
// writing them back.
type State struct {
	Regs map[string]uint64
	Mem  map[uint64]byte
	Base map[uint64]byte
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Regs: map[string]uint64{}, Mem: map[uint64]byte{}}
}

// Clone returns a copy of the state with its own registers and written
// memory. The read-only Base is shared, not copied.
func (s *State) Clone() *State {
	return &State{Regs: maps.Clone(s.Regs), Mem: maps.Clone(s.Mem), Base: s.Base}
}

// Load returns the memory byte at addr: Mem's if written, else Base's,
// else 0.
func (s *State) Load(addr uint64) byte {
	if v, ok := s.Mem[addr]; ok {
		return v
	}
	return s.Base[addr]
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
		b[i] = s.Load(addr + uint64(i))
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

var errExit = errors.New("interp: exit_when outside of repeat loop")

// ctxCheckMask gates the cancellation poll to one check per 1024
// statements.
const ctxCheckMask = 1<<10 - 1

// DefaultStepLimit bounds execution when the caller passes limit <= 0.
const DefaultStepLimit = 1 << 20

const maxCallDepth = 64

// Run compiles the description and executes its routine once against the
// given state, consuming inputs at input statements. The state is mutated
// in place. limit bounds the number of executed statements (<= 0 selects
// DefaultStepLimit). Execution is abandoned (with ctx.Err wrapped in the
// returned error) shortly after ctx is cancelled or its deadline passes.
// Runs and executed-statement counts are recorded per description in the
// process metrics registry. Callers that run one description many times
// should Compile it once and call Program.Run instead.
func Run(ctx context.Context, d *isps.Description, inputs []uint64, state *State, limit int) (*Result, error) {
	start := time.Now()
	return Compile(d).run(ctx, inputs, state, limit, start)
}

// Run executes the program once, exactly as the package-level Run executes
// the description it was compiled from.
func (p *Program) Run(ctx context.Context, inputs []uint64, state *State, limit int) (*Result, error) {
	return p.run(ctx, inputs, state, limit, time.Now())
}

// run executes p and records the run in the process metrics registry,
// timed from start.
func (p *Program) run(ctx context.Context, inputs []uint64, state *State, limit int, start time.Time) (*Result, error) {
	res, err := p.exec(ctx, inputs, state, limit)
	r := obs.Default()
	if err != nil {
		r.Inc("interp.run.err", p.name)
	} else {
		r.Inc("interp.run", p.name)
		r.Observe("interp.steps", p.name, uint64(res.Steps))
	}
	r.ObserveSince("interp.run.ns", p.name, start)
	return res, err
}

func (p *Program) exec(ctx context.Context, inputs []uint64, state *State, limit int) (*Result, error) {
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
	if p.body == nil {
		return nil, fmt.Errorf("interp: description %s has no routine", p.name)
	}
	m := &machine{p: p, ctx: ctx, state: state, inputs: inputs, limit: limit}
	if n := len(p.regs); n <= len(m.regBuf) {
		m.regs = m.regBuf[:n]
	} else {
		m.regs = make([]uint64, n)
	}
	if state.Regs != nil {
		for i, name := range p.regs {
			m.regs[i] = state.Regs[name]
		}
		m.written = make([]bool, len(p.regs))
	}
	st := p.body(m)
	// Assigned registers reach the state even when the run failed part
	// way, as they would have if every assignment wrote it directly.
	for i, w := range m.written {
		if w {
			state.Regs[p.regs[i]] = m.regs[i]
		}
	}
	switch st {
	case exit:
		return nil, errExit
	case fail:
		return nil, m.err
	}
	return &Result{Outputs: m.outputs, Steps: m.steps}, nil
}

// machine is the mutable part of one run of a Program.
type machine struct {
	p     *Program
	ctx   context.Context
	state *State
	regs  []uint64 // by slot
	// written marks the slots assigned during the run; nil when the
	// state's registers are not observed.
	written []bool
	inputs  []uint64
	nextIn  int
	outputs []uint64
	steps   int
	limit   int
	depth   int
	err     error // set when a closure returns fail
	// regBuf backs regs when the program has few registers, as most do,
	// saving an allocation per run.
	regBuf [16]uint64
}

// status is how a statement or expression finished.
type status uint8

const (
	next status = iota // completed normally
	exit               // exit_when fired: unwinds to the innermost repeat
	fail               // failed with machine.err
)

func (m *machine) fail(err error) status {
	m.err = err
	return fail
}

// step counts one statement against the budget, and polls the context
// every ctxCheckMask+1 statements so a deadline or cancellation stops a
// runaway description promptly without taxing every statement.
func (m *machine) step() status {
	m.steps++
	if m.steps > m.limit || m.steps&ctxCheckMask == 0 {
		return m.checkStep()
	}
	return next
}

// checkStep is step's slow path, kept out of line so step inlines.
func (m *machine) checkStep() status {
	if m.steps > m.limit {
		return m.fail(ErrStepLimit)
	}
	if err := m.ctx.Err(); err != nil {
		return m.fail(fmt.Errorf("interp: %s interrupted after %d steps: %w", m.p.name, m.steps, err))
	}
	return next
}

func (m *machine) set(slot int, v uint64) {
	m.regs[slot] = v
	if m.written != nil {
		m.written[slot] = true
	}
}

func (m *machine) store(addr uint64, v byte) {
	if m.state.Mem == nil {
		m.state.Mem = map[uint64]byte{}
	}
	m.state.Mem[addr] = v
}
