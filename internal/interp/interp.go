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
//     address value: any 64-bit address.
//   - Arithmetic wraps modulo 2^64; relational operators yield 0 or 1;
//     and/or/xor/not are logical (any nonzero value counts as true).
//   - input(...) consumes operand values in order; output(...) appends
//     result values in order.
//   - Niladic functions execute their body on the shared register state;
//     the call's value is the last assignment to the function's own name.
//
// A description is compiled once into a Program (see Compile) and run
// once per input; Run does both for a one-shot execution. A Runner runs one
// Program again and again on one reused machine, so a run allocates nothing
// of its own, and a State reused across runs (see State.ResetMem) keeps the
// pages its memory was written to, so after its first runs a store
// allocates nothing either. The package records no metrics: a caller that
// wants runs and steps counted counts them from the Results it gets back,
// as validation does once per validation.
package interp

import (
	"context"
	"errors"
	"fmt"
	"maps"

	"extra/internal/isps"
)

// State is a concrete machine state: register values and main memory.
//
// Memory is an overlay. Base is an optional read-only image underneath;
// the bytes this state writes (or is preset with, through Store) go to its
// own paged memory, never to Base. A read of an address the state has not
// written falls back to Base and then to 0, so any number of states can run
// over one image without copying it. Written lists the addresses the state
// wrote, and ResetMem forgets them while keeping their pages for the next
// run.
//
// A nil Regs map means the caller does not observe registers: a run
// starts every register at 0 and drops the final values instead of
// writing them back.
//
// The zero State is ready to use. A State is for one goroutine, and it must
// not be copied once it has written memory: use Clone.
type State struct {
	Regs map[string]uint64
	Base *Image
	mem  overlay
}

// NewState returns an empty state with an empty register map.
func NewState() *State {
	return &State{Regs: map[string]uint64{}}
}

// Clone returns a copy of the state with its own registers and written
// memory, logged in the same order. The read-only Base is shared, not
// copied.
func (s *State) Clone() *State {
	c := &State{Regs: maps.Clone(s.Regs), Base: s.Base}
	for _, a := range s.mem.log {
		c.mem.store(a, s.Load(a))
	}
	return c
}

// Load returns the memory byte at addr: the state's own if it wrote one
// there, else Base's, else 0.
func (s *State) Load(addr uint64) byte {
	if v, ok := s.mem.load(addr); ok {
		return v
	}
	return s.Base.Load(addr)
}

// Store writes v to memory at addr.
func (s *State) Store(addr uint64, v byte) {
	s.mem.store(addr, v)
}

// Written returns every address the state has written since it was made
// or its memory was last reset, each once, in the order of its first
// write. The slice belongs to the state: it is valid until the next Store,
// run or ResetMem, and the caller must not modify it.
func (s *State) Written() []uint64 {
	return s.mem.log
}

// ResetMem forgets every byte the state wrote, as if it had written none;
// Base is kept. The pages that held them are reused by later writes.
func (s *State) ResetMem() {
	s.mem.reset()
}

// SetString stores the bytes of str into memory starting at addr.
func (s *State) SetString(addr uint64, str string) {
	for i := 0; i < len(str); i++ {
		s.mem.store(addr+uint64(i), str[i])
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
// Callers that run one description many times should Compile it once and
// run it through a Runner instead.
func Run(ctx context.Context, d *isps.Description, inputs []uint64, state *State, limit int) (*Result, error) {
	return Compile(d).Run(ctx, inputs, state, limit)
}

// Run executes the program once on a fresh Runner, exactly as the
// package-level Run executes the description it was compiled from. The
// Result is the caller's to keep.
func (p *Program) Run(ctx context.Context, inputs []uint64, state *State, limit int) (*Result, error) {
	return p.NewRunner().Run(ctx, inputs, state, limit)
}

// Runner runs one Program again and again. It keeps its machine, register
// slots, output buffer and Result across runs, and every run starts from
// exactly the state a fresh Runner's first run starts from. A Runner is for
// one goroutine, and the Result a run returns, Outputs included, is valid
// only until the Runner's next run.
type Runner struct {
	m   machine
	res Result
}

// NewRunner returns a Runner for p.
func (p *Program) NewRunner() *Runner {
	r := &Runner{m: machine{p: p}}
	if n := len(p.regs); n <= len(r.m.regBuf) {
		r.m.regs = r.m.regBuf[:n]
	} else {
		r.m.regs = make([]uint64, n)
	}
	return r
}

// Run executes the program once, as Program.Run does, reusing the Runner's
// machine.
func (r *Runner) Run(ctx context.Context, inputs []uint64, state *State, limit int) (*Result, error) {
	m := &r.m
	if limit <= 0 {
		limit = DefaultStepLimit
	}
	if m.p.body == nil {
		return nil, fmt.Errorf("interp: description %s has no routine", m.p.name)
	}
	m.ctx, m.state, m.inputs, m.limit = ctx, state, inputs, limit
	m.nextIn, m.steps, m.depth, m.err = 0, 0, 0, nil
	m.outputs = m.outputs[:0]
	m.written = nil
	if state.Regs != nil {
		for i, name := range m.p.regs {
			m.regs[i] = state.Regs[name]
		}
		if m.writtenBuf == nil {
			m.writtenBuf = make([]bool, len(m.regs))
		} else {
			clear(m.writtenBuf)
		}
		m.written = m.writtenBuf
	} else {
		clear(m.regs)
	}
	st := m.p.body(m)
	// Assigned registers reach the state even when the run failed part
	// way, as they would have if every assignment wrote it directly.
	for i, w := range m.written {
		if w {
			state.Regs[m.p.regs[i]] = m.regs[i]
		}
	}
	switch st {
	case exit:
		return nil, errExit
	case fail:
		return nil, m.err
	}
	r.res = Result{Outputs: m.outputs, Steps: m.steps}
	return &r.res, nil
}

// machine is the mutable part of a run of a Program; a Runner resets it at
// the start of every run.
type machine struct {
	p     *Program
	ctx   context.Context
	state *State
	regs  []uint64 // by slot
	// written marks the slots assigned during the run; nil when the
	// state's registers are not observed. writtenBuf backs it.
	written    []bool
	writtenBuf []bool
	inputs     []uint64
	nextIn     int
	outputs    []uint64
	steps      int
	limit      int
	depth      int
	err        error // set when a closure returns fail
	// regBuf backs regs when the program has few registers, as most do,
	// saving an allocation per Runner.
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
	m.state.mem.store(addr, v)
}
