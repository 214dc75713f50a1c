// Package sim provides the shared machinery for the target machine
// simulators: a tiny assembly container with labels, a machine state of
// registers, memory, flags and a cycle counter, and a fetch-execute loop.
// Each target (i8086, vax, ibm370) supplies an ISA — a Decode function
// that maps a mnemonic and its operand kinds to one handler of its
// instruction subset, including the exotic string instructions, with a
// documented cycle cost model.
//
// NewMachine decodes a program once. Every register name an operand
// carries becomes a dense slot in the machine's register file: the
// registers an ISA's handlers use without an operand naming them (its
// Regs table) take the first slots, in table order, so the handlers
// address them by constant. Every label operand becomes the index of the
// instruction it names, the decoded operands share one allocation, and
// each instruction keeps the handler its ISA chose for it. Run then calls
// one handler per step, with no map lookup or mnemonic comparison; only
// the string instructions read their value operands through Val's switch
// on kinds, once per instruction. Decoding refuses only a duplicate label:
// a jump to an undefined label, an unknown mnemonic and an unsupported
// operand form decode to handlers that fail when executed, and a program
// that never reaches them runs.
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

// Inst is a decoded instruction: its operands and the handler its ISA
// chose for its mnemonic and operand kinds. It keeps no mnemonic; a
// handler that names one in an error text reads it with Machine.Mnemonic.
type Inst struct {
	Ops  []Op
	exec Handler
}

// Handler performs one decoded instruction: it charges the instruction's
// cycles and may change m.PC via Machine.Jump.
type Handler func(m *Machine, in *Inst) error

// ISA is a target instruction set: a register width, the registers its
// handlers use implicitly, and a decoder.
type ISA struct {
	Name string
	// Bits is the register width; register writes are masked to it.
	Bits int
	// Regs names the registers the handlers read or write without an
	// operand naming them; NewMachine gives Regs[i] slot i.
	Regs []string
	// Decode picks the handler for an instruction from its mnemonic and
	// decoded operands, once per instruction. It returns a handler for
	// every input: an unknown mnemonic or an unsupported operand form gets
	// one that fails when executed, and it reads operand kinds through
	// KindAt, so a short operand list decodes too.
	Decode func(mn string, ops []Op) Handler
}

// Nop is the handler of the no-op, the mnemonic Lbl's position markers
// carry: it charges nothing.
func Nop(*Machine, *Inst) error { return nil }

// KindAt is the kind of ops[i], or KNone when there are fewer operands.
func KindAt(ops []Op, i int) OperandKind {
	if i < len(ops) {
		return ops[i].Kind
	}
	return KNone
}

// ByValue picks the handler for value operand i (0 or 1) by its kind:
// reg for a register, imm for an immediate, mem for a memory byte. Any
// other operand, or a missing one, gets a handler that fails as Val does
// when executed.
func ByValue(ops []Op, i int, reg, imm, mem Handler) Handler {
	switch KindAt(ops, i) {
	case KReg:
		return reg
	case KImm:
		return imm
	case KMem:
		return mem
	}
	return notValue[i]
}

var notValue = [...]Handler{notValue0, notValue1}

func notValue0(m *Machine, in *Inst) error {
	_, err := m.Val(&in.Ops[0])
	return err
}

func notValue1(m *Machine, in *Inst) error {
	_, err := m.Val(&in.Ops[1])
	return err
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
		m.code[i] = Inst{Ops: dec, exec: isa.Decode(in.Mn, dec)}
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

// Mnemonic is the mnemonic of the instruction in was decoded from, or ""
// when in is not one of m's instructions. It serves error texts, so it
// scans the program rather than widen every decoded instruction.
func (m *Machine) Mnemonic(in *Inst) string {
	for i := range m.code {
		if &m.code[i] == in {
			return m.prog[i].Mn
		}
	}
	return ""
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
		return m.MemByte(o), nil
	}
	return 0, fmt.Errorf("sim: operand %s is not a value", o.Operand)
}

// MemByte reads the byte a memory operand addresses.
func (m *Machine) MemByte(o *Op) uint64 { return uint64(m.LoadByte(m.EA(o))) }

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

// StoreBytes writes bs to memory from addr on, wrapping like StoreByte. It
// copies a page's share of bs at a time and, like StoreByte, maps an absent
// page only when its share holds a nonzero byte.
func (m *Machine) StoreBytes(addr uint64, bs []byte) {
	a := addr % MemSize
	for len(bs) > 0 {
		off := a % pageSize
		n := min(uint64(len(bs)), pageSize-off)
		chunk := bs[:n]
		p := m.pages[a>>pageBits]
		if p == nil && !allZero(chunk) {
			p = new(page)
			m.pages[a>>pageBits] = p
		}
		if p != nil {
			copy(p[off:], chunk)
		}
		bs = bs[n:]
		a = (a + n) % MemSize
	}
}

func allZero(bs []byte) bool {
	for _, b := range bs {
		if b != 0 {
			return false
		}
	}
	return true
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
	code := m.code
	for !m.Halted && m.PC < len(code) {
		if m.steps++; m.steps > maxSteps {
			return ErrStepLimit
		}
		pc := m.PC
		m.PC++
		in := &code[pc]
		if err := in.exec(m, in); err != nil {
			return fmt.Errorf("sim: at %d (%s): %w", pc, m.prog[pc], err)
		}
	}
	return nil
}
