// Package ir is the compiler's high-level internal form. As the paper's
// section 6 requires of a compiler that wants to use EXTRA's bindings, the
// internal form represents high-level language operators explicitly — a
// string search is an Index instruction, not a loop — so the code generator
// can emit an exotic instruction when a binding's constraints are
// satisfiable and fall back to decomposition rules otherwise.
package ir

import (
	"fmt"
	"strings"
	"sync"

	"extra/internal/interp"
)

// Op is an IR operation.
type Op string

// IR operations. The string operations mirror the operators analyzed in
// the paper's Table 2.
const (
	// Set dst <- arg.
	Set Op = "set"
	// Add/Sub: dst <- a op b.
	Add Op = "add"
	Sub Op = "sub"
	// LoadB dst <- byte at address a; StoreB: byte at address a <- b.
	LoadB  Op = "loadb"
	StoreB Op = "storeb"
	// Index dst <- 1-based index of character c in the string (base, len),
	// or 0 (Rigel/CLU string search).
	Index Op = "index"
	// Move copies len bytes from src to dst (Pascal sassign / PL/1 smove /
	// PC2 blkcpy): args (dst, src, len).
	Move Op = "move"
	// Clear zeroes len bytes at dst (PC2 blkclr): args (dst, len).
	Clear Op = "clear"
	// Compare dst <- 1 if the len-byte strings at a and b are equal else 0
	// (Pascal scompare): args (a, b, len).
	Compare Op = "compare"
	// Translate replaces each of the len bytes at base with the entry it
	// selects from the 256-byte table (PL/1 TRANSLATE in place): args
	// (base, table, len).
	Translate Op = "translate"
	// Print emits the value to the program's output stream.
	Print Op = "print"
	// Label marks a branch target (Dst holds the name).
	Label Op = "label"
	// Goto branches unconditionally to the label named by Dst.
	Goto Op = "goto"
	// IfZ branches to the label named by Dst when its operand is zero;
	// IfNZ when it is nonzero.
	IfZ  Op = "ifz"
	IfNZ Op = "ifnz"
	// Data places literal bytes in memory at a fixed address before the
	// program runs: Bytes at address At.
	Data Op = "data"
)

// Value is an operand: a compile-time constant or a variable.
type Value struct {
	IsConst bool
	Const   uint64
	Var     string
}

// C builds a constant operand.
func C(v uint64) Value { return Value{IsConst: true, Const: v} }

// V builds a variable operand.
func V(name string) Value { return Value{Var: name} }

func (v Value) String() string {
	if v.IsConst {
		return fmt.Sprintf("%d", v.Const)
	}
	return v.Var
}

// Ins is one IR instruction.
type Ins struct {
	Op    Op
	Dst   string
	Args  []Value
	Bytes []byte
	At    uint64
}

func (i Ins) String() string {
	parts := make([]string, len(i.Args))
	for k, a := range i.Args {
		parts[k] = a.String()
	}
	if i.Op == Data {
		return fmt.Sprintf("data @%d %q", i.At, i.Bytes)
	}
	if i.Dst != "" {
		return fmt.Sprintf("%s = %s(%s)", i.Dst, i.Op, strings.Join(parts, ", "))
	}
	return fmt.Sprintf("%s(%s)", i.Op, strings.Join(parts, ", "))
}

// Prog is a straight-line IR program.
type Prog struct {
	Ins []Ins
}

func (p *Prog) String() string {
	var b strings.Builder
	for _, i := range p.Ins {
		b.WriteString(i.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Vars returns the variables the program mentions, in first-use order
// (label names are not variables).
func (p *Prog) Vars() []string {
	seen := map[string]bool{}
	var out []string
	note := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, i := range p.Ins {
		if !usesDstAsLabel[i.Op] {
			note(i.Dst)
		}
		for _, a := range i.Args {
			if !a.IsConst {
				note(a.Var)
			}
		}
	}
	return out
}

// arity of each op's Args (Dst not counted).
var arity = map[Op]int{
	Set: 1, Add: 2, Sub: 2, LoadB: 1, StoreB: 2,
	Index: 3, Move: 3, Clear: 2, Compare: 3, Translate: 3, Print: 1, Data: 0,
	Label: 0, Goto: 0, IfZ: 1, IfNZ: 1,
}

// usesDstAsLabel marks ops whose Dst names a label, not a variable.
var usesDstAsLabel = map[Op]bool{Label: true, Goto: true, IfZ: true, IfNZ: true}

// needsDst marks ops that produce a value.
var needsDst = map[Op]bool{
	Set: true, Add: true, Sub: true, LoadB: true, Index: true, Compare: true,
}

// Check validates operand arity, destination use, and label references.
// Variable definedness is checked in textual order (a backward branch may
// therefore not smuggle in an earlier use; the front end keeps definitions
// ahead of loops).
func (p *Prog) Check() error {
	labels := map[string]bool{}
	for n, i := range p.Ins {
		if i.Op == Label {
			if i.Dst == "" {
				return fmt.Errorf("ir: %d: label without a name", n)
			}
			if labels[i.Dst] {
				return fmt.Errorf("ir: %d: duplicate label %q", n, i.Dst)
			}
			labels[i.Dst] = true
		}
	}
	defined := map[string]bool{}
	for n, i := range p.Ins {
		want, ok := arity[i.Op]
		if !ok {
			return fmt.Errorf("ir: %d: unknown op %q", n, i.Op)
		}
		if len(i.Args) != want {
			return fmt.Errorf("ir: %d: %s takes %d operands, has %d", n, i.Op, want, len(i.Args))
		}
		if usesDstAsLabel[i.Op] {
			if i.Dst == "" {
				return fmt.Errorf("ir: %d: %s needs a label", n, i.Op)
			}
			if !labels[i.Dst] {
				return fmt.Errorf("ir: %d: undefined label %q", n, i.Dst)
			}
		} else if needsDst[i.Op] != (i.Dst != "") {
			return fmt.Errorf("ir: %d: %s destination mismatch", n, i.Op)
		}
		for _, a := range i.Args {
			if !a.IsConst && !defined[a.Var] {
				return fmt.Errorf("ir: %d: variable %q used before definition", n, a.Var)
			}
		}
		if i.Dst != "" && !usesDstAsLabel[i.Op] {
			defined[i.Dst] = true
		}
	}
	return nil
}

// RefResult is the reference evaluator's outcome.
type RefResult struct {
	Out  []uint64
	Mem  map[uint64]byte
	Vars map[string]uint64
}

// RefRun executes the program with the reference semantics (64-bit
// variables, byte memory). It is the ground truth the generated code for
// every target is checked against.
//
// Memory is an interp.State with no base image, whose paged overlay takes
// any 64-bit address and logs each written address once. Mem is built
// from that log once, when the run ends; the state is then reset and kept
// for a later run, which writes into its pages and log instead of growing
// new ones.
func (p *Prog) RefRun() (*RefResult, error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	r := &RefResult{Vars: map[string]uint64{}}
	val := func(v Value) uint64 {
		if v.IsConst {
			return v.Const
		}
		return r.Vars[v.Var]
	}
	labels := map[string]int{}
	for n, i := range p.Ins {
		if i.Op == Label {
			labels[i.Dst] = n
		}
	}
	st := refMemory.Get().(*interp.State)
	const budget = 1 << 22
	steps := 0
	for pc := 0; pc < len(p.Ins); pc++ {
		if steps++; steps > budget {
			return nil, fmt.Errorf("ir: reference run exceeded %d steps (non-terminating loop?)", budget)
		}
		i := p.Ins[pc]
		switch i.Op {
		case Label:
			// no effect
		case Goto:
			pc = labels[i.Dst]
		case IfZ:
			if val(i.Args[0]) == 0 {
				pc = labels[i.Dst]
			}
		case IfNZ:
			if val(i.Args[0]) != 0 {
				pc = labels[i.Dst]
			}
		case Data:
			for k, b := range i.Bytes {
				st.Store(i.At+uint64(k), b)
			}
		case Set:
			r.Vars[i.Dst] = val(i.Args[0])
		case Add:
			r.Vars[i.Dst] = val(i.Args[0]) + val(i.Args[1])
		case Sub:
			r.Vars[i.Dst] = val(i.Args[0]) - val(i.Args[1])
		case LoadB:
			r.Vars[i.Dst] = uint64(st.Load(val(i.Args[0])))
		case StoreB:
			st.Store(val(i.Args[0]), byte(val(i.Args[1])))
		case Index:
			base, n, ch := val(i.Args[0]), val(i.Args[1]), val(i.Args[2])
			r.Vars[i.Dst] = 0
			for k := uint64(0); k < n; k++ {
				if uint64(st.Load(base+k)) == ch&0xff {
					r.Vars[i.Dst] = k + 1
					break
				}
			}
		case Move:
			dst, src, n := val(i.Args[0]), val(i.Args[1]), val(i.Args[2])
			// Forward byte-by-byte, the Pascal semantics (operands may not
			// overlap in the source language).
			for k := uint64(0); k < n; k++ {
				st.Store(dst+k, st.Load(src+k))
			}
		case Clear:
			dst, n := val(i.Args[0]), val(i.Args[1])
			for k := uint64(0); k < n; k++ {
				st.Store(dst+k, 0)
			}
		case Compare:
			a, b, n := val(i.Args[0]), val(i.Args[1]), val(i.Args[2])
			eq := uint64(1)
			for k := uint64(0); k < n; k++ {
				if st.Load(a+k) != st.Load(b+k) {
					eq = 0
					break
				}
			}
			r.Vars[i.Dst] = eq
		case Translate:
			base, table, n := val(i.Args[0]), val(i.Args[1]), val(i.Args[2])
			for k := uint64(0); k < n; k++ {
				st.Store(base+k, st.Load(table+uint64(st.Load(base+k))))
			}
		case Print:
			r.Out = append(r.Out, val(i.Args[0]))
		}
	}
	r.Mem = make(map[uint64]byte, len(st.Written()))
	for _, a := range st.Written() {
		r.Mem[a] = st.Load(a)
	}
	st.ResetMem()
	refMemory.Put(st)
	return r, nil
}

// refMemory holds the reset memories of finished reference runs. A
// pooled state keeps the pages its runs wrote until a garbage collection
// drops it from the pool; a run that exceeds the step budget does not
// return its state.
var refMemory = sync.Pool{New: func() any { return new(interp.State) }}
