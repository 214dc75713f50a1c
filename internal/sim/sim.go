// Package sim provides the shared machinery for the target machine
// simulators: a tiny assembly container with labels, a machine state of
// registers, memory, flags and a cycle counter, and a fetch-execute loop.
// Each target (i8086, vax, ibm370) supplies an ISA — an Exec function
// implementing its instruction subset, including the exotic string
// instructions, with a documented cycle cost model.
//
// NewMachine decodes a program once. Every register name an operand
// carries becomes a dense slot in the machine's register file: the
// registers an ISA's handlers use without an operand naming them (its
// Regs table) take the first slots, in table order, so the handlers
// address them by constant. Every label operand becomes the index of the
// instruction it names, and the decoded operands share one allocation. Run
// then executes with no map lookup per instruction. Decoding refuses only
// a duplicate label: a jump to an undefined label and an unknown mnemonic
// fail when executed, and a program that never reaches them runs.
//
// Memory is a 64 KiB space whose addresses wrap modulo its size, kept in
// 1 KiB pages allocated on the first store of a nonzero byte; a byte never
// written reads 0. Neither the decoding nor the pages enter the wrap or
// the cycle model: the pinned-run test in package synth holds every
// catalog workload's cycles, output, whole memory and registers to the
// values recorded from map-based simulators that kept one register map,
// one label map and one zeroed 64 KiB image per machine.
//
// The simulators substitute for the paper's real hardware: generated code
// runs on them end to end, and their cycle counters quantify the paper's
// motivation that exotic instructions beat equivalent primitive sequences
// in time and space (section 1).
package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// OperandKind discriminates assembly operand forms.
type OperandKind int

// Operand kinds.
const (
	KNone  OperandKind = iota
	KReg               // register
	KImm               // immediate
	KMem               // memory, indirect through a register plus displacement
	KLabel             // branch target
)

// Operand is one assembly operand.
type Operand struct {
	Kind  OperandKind
	Reg   string
	Imm   uint64
	Disp  int64
	Label string
}

// R builds a register operand.
func R(name string) Operand { return Operand{Kind: KReg, Reg: name} }

// I builds an immediate operand.
func I(v uint64) Operand { return Operand{Kind: KImm, Imm: v} }

// M builds a memory operand indirect through a register.
func M(reg string) Operand { return Operand{Kind: KMem, Reg: reg} }

// MD builds a memory operand indirect through a register with displacement.
func MD(reg string, disp int64) Operand { return Operand{Kind: KMem, Reg: reg, Disp: disp} }

// L builds a label operand.
func L(label string) Operand { return Operand{Kind: KLabel, Label: label} }

func (o Operand) String() string {
	var b strings.Builder
	o.writeTo(&b)
	return b.String()
}

// writeTo appends the operand's listing form to b.
func (o Operand) writeTo(b *strings.Builder) {
	var num [20]byte
	switch o.Kind {
	case KReg:
		b.WriteString(o.Reg)
	case KImm:
		b.WriteByte('#')
		b.Write(strconv.AppendUint(num[:0], o.Imm, 10))
	case KMem:
		if o.Disp != 0 {
			b.Write(strconv.AppendInt(num[:0], o.Disp, 10))
		}
		b.WriteByte('[')
		b.WriteString(o.Reg)
		b.WriteByte(']')
	case KLabel:
		b.WriteString(o.Label)
	default:
		b.WriteByte('?')
	}
}

// Instr is one assembly instruction, optionally carrying a label.
type Instr struct {
	Label string
	Mn    string
	Ops   []Operand
}

// Ins builds an instruction.
func Ins(mn string, ops ...Operand) Instr { return Instr{Mn: mn, Ops: ops} }

// Lbl builds a label-only position marker (a no-op carrying the label).
func Lbl(name string) Instr { return Instr{Label: name, Mn: "nop"} }

func (in Instr) String() string {
	var b strings.Builder
	b.Grow(len(in.Label) + len(in.Mn) + 2 + 12*len(in.Ops))
	in.writeTo(&b)
	return b.String()
}

// writeTo appends the instruction's listing form to b.
func (in Instr) writeTo(b *strings.Builder) {
	if in.Label != "" {
		b.WriteString(in.Label)
		b.WriteString(": ")
	}
	b.WriteString(in.Mn)
	for i, o := range in.Ops {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		o.writeTo(b)
	}
}

// Listing renders a program as text, one instruction per line.
func Listing(prog []Instr) string {
	var b strings.Builder
	for _, in := range prog {
		if in.Label != "" && in.Mn == "nop" {
			b.WriteString(in.Label)
			b.WriteString(":\n")
			continue
		}
		b.WriteByte('\t')
		in.writeTo(&b)
		b.WriteByte('\n')
	}
	return b.String()
}

// Op is a decoded operand: the assembly operand, its register's slot and,
// for a label, the index of the instruction the label names.
type Op struct {
	Operand
	// Slot is the register file slot of Reg. Every operand has one (its
	// Reg is "" when the form names no register), so a handler reads the
	// same register the name would have.
	Slot int
	// Target is the index of the instruction carrying Label, or -1 when
	// none does.
	Target int
}

// Inst is a decoded instruction.
type Inst struct {
	Mn  string
	Ops []Op
}

// ISA is a target instruction set: a register width, the registers its
// handlers use implicitly, and an executor. Exec performs one instruction,
// charges its cycles, and may change m.PC via Machine.Jump.
type ISA struct {
	Name string
	// Bits is the register width; register writes are masked to it.
	Bits int
	// Regs names the registers Exec reads or writes without an operand
	// naming them; NewMachine gives Regs[i] slot i.
	Regs []string
	Exec func(m *Machine, in *Inst) error
}

// MemSize is the simulated memory size in bytes.
const MemSize = 1 << 16

// Memory pages: 1 KiB each, so a workload's operand blocks, translate
// table and variable frame take a few pages rather than 64 KiB, and a
// 1 KiB block at a 1 KiB boundary takes one.
const (
	pageBits = 10
	pageSize = 1 << pageBits
)

type page [pageSize]byte

// slotBuf is how many register slots a machine holds without a further
// allocation; every catalog target needs fewer.
const slotBuf = 24

// Machine is a decoded program and the architectural state it runs on.
type Machine struct {
	ISA *ISA
	PC  int
	// ZF is the zero/equal condition; LF the less/negative condition.
	ZF, LF bool
	// DF is the 8086 direction flag.
	DF bool
	// Halted stops the run loop.
	Halted bool
	// Cycles accumulates the cost model.
	Cycles uint64
	// Out collects values emitted by the "out" instruction.
	Out []uint64

	prog  []Instr // the source, for error texts
	code  []Inst
	mask  uint64
	steps int
	regs  []uint64 // by slot
	names []string // slot -> register name
	pages [MemSize / pageSize]*page

	regBuf  [slotBuf]uint64
	nameBuf [slotBuf]string
}

// NewMachine decodes prog for isa and returns a machine ready to run. It
// fails only on a duplicate label.
func NewMachine(isa *ISA, prog []Instr) (*Machine, error) {
	m := &Machine{ISA: isa, prog: prog, mask: ^uint64(0)}
	if isa.Bits < 64 {
		m.mask = 1<<uint(isa.Bits) - 1
	}
	m.names = append(m.nameBuf[:0], isa.Regs...)
	nops := 0
	for i, in := range prog {
		if in.Label != "" && labelIndex(prog[:i], in.Label) >= 0 {
			return nil, fmt.Errorf("sim: duplicate label %q", in.Label)
		}
		nops += len(in.Ops)
	}
	m.code = make([]Inst, len(prog))
	ops := make([]Op, nops)
	for i, in := range prog {
		dec := ops[:len(in.Ops):len(in.Ops)]
		ops = ops[len(in.Ops):]
		for k, o := range in.Ops {
			dec[k] = Op{Operand: o, Slot: m.slot(o.Reg), Target: -1}
			if o.Label != "" {
				dec[k].Target = labelIndex(prog, o.Label)
			}
		}
		m.code[i] = Inst{Mn: in.Mn, Ops: dec}
	}
	if len(m.names) <= len(m.regBuf) {
		m.regs = m.regBuf[:len(m.names)]
	} else {
		m.regs = make([]uint64, len(m.names))
	}
	return m, nil
}

// labelIndex is the index of the first instruction in prog carrying
// label, or -1.
func labelIndex(prog []Instr, label string) int {
	for i := range prog {
		if prog[i].Label == label {
			return i
		}
	}
	return -1
}

// slot returns name's register slot, assigning the next one on first use.
func (m *Machine) slot(name string) int {
	for i, n := range m.names {
		if n == name {
			return i
		}
	}
	m.names = append(m.names, name)
	return len(m.names) - 1
}

// Jump transfers control to a label operand's instruction.
func (m *Machine) Jump(o *Op) error {
	if o.Target < 0 {
		return fmt.Errorf("sim: undefined label %q", o.Label)
	}
	m.PC = o.Target
	return nil
}

// Mask truncates v to the ISA register width.
func (m *Machine) Mask(v uint64) uint64 { return v & m.mask }

// Get reads the register in slot.
func (m *Machine) Get(slot int) uint64 { return m.regs[slot] }

// Set writes the register in slot, masked to the ISA width.
func (m *Machine) Set(slot int, v uint64) { m.regs[slot] = v & m.mask }

// Reg reads a register by name; a register the program never names reads
// 0.
func (m *Machine) Reg(name string) uint64 {
	for i, n := range m.names {
		if n == name {
			return m.regs[i]
		}
	}
	return 0
}

// Val evaluates a register, immediate or memory (byte) operand.
func (m *Machine) Val(o *Op) (uint64, error) {
	switch o.Kind {
	case KReg:
		return m.regs[o.Slot], nil
	case KImm:
		return o.Imm, nil
	case KMem:
		return uint64(m.LoadByte(m.EA(o))), nil
	}
	return 0, fmt.Errorf("sim: operand %s is not a value", o.Operand)
}

// EA computes a memory operand's effective address.
func (m *Machine) EA(o *Op) uint64 {
	return (m.regs[o.Slot] + uint64(o.Disp)) % MemSize
}

// LoadByte reads a byte of memory.
func (m *Machine) LoadByte(addr uint64) byte {
	a := addr % MemSize
	if p := m.pages[a>>pageBits]; p != nil {
		return p[a%pageSize]
	}
	return 0
}

// StoreByte writes a byte of memory.
func (m *Machine) StoreByte(addr uint64, v byte) {
	a := addr % MemSize
	p := m.pages[a>>pageBits]
	if p == nil {
		if v == 0 {
			return // an unwritten byte already reads 0
		}
		p = new(page)
		m.pages[a>>pageBits] = p
	}
	p[a%pageSize] = v
}

// StoreBytes writes bs to memory from addr on, wrapping like StoreByte.
func (m *Machine) StoreBytes(addr uint64, bs []byte) {
	for i, b := range bs {
		m.StoreByte(addr+uint64(i), b)
	}
}

// LoadWord reads a little-endian word of the ISA width (16 or 32 bits).
func (m *Machine) LoadWord(addr uint64) uint64 {
	n := m.ISA.Bits / 8
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * uint(i))
	}
	return v
}

// StoreWord writes a little-endian word of the ISA width.
func (m *Machine) StoreWord(addr uint64, v uint64) {
	n := m.ISA.Bits / 8
	for i := 0; i < n; i++ {
		m.StoreByte(addr+uint64(i), byte(v>>(8*uint(i))))
	}
}

// SameMemory reports whether m and o hold the same 64 KiB of memory.
func (m *Machine) SameMemory(o *Machine) bool {
	for i, p := range m.pages {
		q := o.pages[i]
		switch {
		case p == q:
		case p == nil:
			if *q != (page{}) {
				return false
			}
		case q == nil:
			if *p != (page{}) {
				return false
			}
		case *p != *q:
			return false
		}
	}
	return true
}

// ErrStepLimit reports a run that exceeded its step budget.
var ErrStepLimit = fmt.Errorf("sim: step limit exceeded")

// Run executes until a hlt instruction, the end of the program, or the step
// limit (<= 0 selects a default of one million).
func (m *Machine) Run(maxSteps int) error {
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}
	exec := m.ISA.Exec
	for !m.Halted && m.PC < len(m.code) {
		if m.steps++; m.steps > maxSteps {
			return ErrStepLimit
		}
		pc := m.PC
		m.PC++
		if err := exec(m, &m.code[pc]); err != nil {
			return fmt.Errorf("sim: at %d (%s): %w", pc, m.prog[pc], err)
		}
	}
	return nil
}
