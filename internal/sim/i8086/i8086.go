// Package i8086 simulates the Intel 8086 subset the retargetable code
// generator emits: the general move/arithmetic/branch instructions plus the
// rep-prefixed string instructions (movsb, scasb, cmpsb, stosb). Cycle
// costs follow the timings in the 8086 Family User's Manual (memory
// operands charged with a flat effective-address penalty); string
// instruction costs are the documented base plus per-repetition cost.
//
// Registers are 16 bits. al is modeled as its own 8-bit register (the
// generated code never uses ax and al together). Byte memory operands are
// written [reg]; word loads/stores of variables use movw.
package i8086

import (
	"fmt"

	"extra/internal/sim"
)

// Slots of the registers the string instructions and xlat use without
// naming them, in the order of isa.Regs.
const (
	cx = iota
	si
	di
	al
	bx
)

var isa = &sim.ISA{Name: "Intel 8086", Bits: 16, Regs: []string{"cx", "si", "di", "al", "bx"}, Decode: decode}

// ISA returns the 8086 instruction set simulator.
func ISA() *sim.ISA { return isa }

// decode picks one handler per mnemonic and operand form.
func decode(mn string, ops []sim.Op) sim.Handler {
	switch mn {
	case "nop":
		return sim.Nop
	case "hlt":
		return hlt
	case "out":
		return sim.ByValue(ops, 0, outR, outI, outM)
	case "mov":
		dst, src := sim.KindAt(ops, 0), sim.KindAt(ops, 1)
		switch {
		case dst == sim.KReg && src == sim.KReg:
			return movRR
		case dst == sim.KReg && src == sim.KImm:
			return movRI
		case dst == sim.KReg && src == sim.KMem:
			return movRM
		case dst == sim.KMem && src == sim.KReg:
			return movMR
		case dst == sim.KMem && src == sim.KImm:
			return movMI
		}
		return forms
	case "movw":
		dst, src := sim.KindAt(ops, 0), sim.KindAt(ops, 1)
		switch {
		case dst == sim.KReg && src == sim.KMem:
			return movwRM
		case dst == sim.KMem && src == sim.KReg:
			return movwMR
		}
		return forms
	case "add":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return sim.ByValue(ops, 1, addR, addI, addM)
	case "sub":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return sim.ByValue(ops, 1, subR, subI, subM)
	case "cmp":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return sim.ByValue(ops, 1, cmpR, cmpI, cmpM)
	case "and":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return sim.ByValue(ops, 1, andR, andI, andM)
	case "inc":
		if sim.NotReg(ops, 0) {
			return forms1
		}
		return inc
	case "dec":
		if sim.NotReg(ops, 0) {
			return forms1
		}
		return dec
	case "xlat":
		return xlat
	case "cld":
		return cld
	case "std":
		return std
	case "jmp":
		return jmp
	case "jz":
		return jz
	case "jnz":
		return jnz
	case "jb":
		return jb
	case "jae":
		return jae
	case "loop":
		return loop
	case "rep_movsb":
		return repMovsb
	case "rep_stosb":
		return repStosb
	case "repne_scasb":
		return repneScasb
	case "repe_cmpsb":
		return repeCmpsb
	}
	return unknown
}

func unknown(m *sim.Machine, in *sim.Inst) error {
	return fmt.Errorf("i8086: unknown instruction %q", m.Mnemonic(in))
}

// forms refuses a two-operand instruction in operand forms the subset
// does not have, and forms1 a one-operand one.
func forms(m *sim.Machine, in *sim.Inst) error {
	return fmt.Errorf("i8086: unsupported %s forms %s, %s", m.Mnemonic(in), &in.Ops[0], &in.Ops[1])
}

func forms1(m *sim.Machine, in *sim.Inst) error {
	return fmt.Errorf("i8086: unsupported %s forms %s", m.Mnemonic(in), &in.Ops[0])
}

func hlt(m *sim.Machine, _ *sim.Inst) error {
	m.Cycles += 2
	m.Halted = true
	return nil
}

func outR(m *sim.Machine, in *sim.Inst) error { return out(m, m.Get(in.Ops[0].Slot)) }
func outI(m *sim.Machine, in *sim.Inst) error { return out(m, in.Ops[0].Imm) }
func outM(m *sim.Machine, in *sim.Inst) error { return out(m, m.MemByte(&in.Ops[0])) }

func out(m *sim.Machine, v uint64) error {
	m.Cycles += 8
	m.Out = append(m.Out, v)
	return nil
}

// mov: register/immediate moves and byte memory access.

func movRR(m *sim.Machine, in *sim.Inst) error {
	m.Set(in.Ops[0].Slot, m.Get(in.Ops[1].Slot))
	m.Cycles += 2
	return nil
}

func movRI(m *sim.Machine, in *sim.Inst) error {
	m.Set(in.Ops[0].Slot, in.Ops[1].Imm)
	m.Cycles += 4
	return nil
}

func movRM(m *sim.Machine, in *sim.Inst) error {
	m.Set(in.Ops[0].Slot, m.MemByte(&in.Ops[1]))
	m.Cycles += 12
	return nil
}

func movMR(m *sim.Machine, in *sim.Inst) error {
	m.StoreByte(m.EA(&in.Ops[0]), byte(m.Get(in.Ops[1].Slot)))
	m.Cycles += 13
	return nil
}

func movMI(m *sim.Machine, in *sim.Inst) error {
	m.StoreByte(m.EA(&in.Ops[0]), byte(in.Ops[1].Imm))
	m.Cycles += 14
	return nil
}

// movw: 16-bit variable loads and stores.

func movwRM(m *sim.Machine, in *sim.Inst) error {
	m.Set(in.Ops[0].Slot, m.LoadWord(m.EA(&in.Ops[1])))
	m.Cycles += 12
	return nil
}

func movwMR(m *sim.Machine, in *sim.Inst) error {
	m.StoreWord(m.EA(&in.Ops[0]), m.Get(in.Ops[1].Slot))
	m.Cycles += 13
	return nil
}

// add, sub, cmp and and: the destination is a register, and the source b
// costs 4 cycles as an immediate, 3 otherwise.

func addR(m *sim.Machine, in *sim.Inst) error { return add(m, in, m.Get(in.Ops[1].Slot), 3) }
func addI(m *sim.Machine, in *sim.Inst) error { return add(m, in, in.Ops[1].Imm, 4) }
func addM(m *sim.Machine, in *sim.Inst) error { return add(m, in, m.MemByte(&in.Ops[1]), 3) }
func subR(m *sim.Machine, in *sim.Inst) error { return sub(m, in, m.Get(in.Ops[1].Slot), 3, true) }
func subI(m *sim.Machine, in *sim.Inst) error { return sub(m, in, in.Ops[1].Imm, 4, true) }
func subM(m *sim.Machine, in *sim.Inst) error { return sub(m, in, m.MemByte(&in.Ops[1]), 3, true) }
func cmpR(m *sim.Machine, in *sim.Inst) error { return sub(m, in, m.Get(in.Ops[1].Slot), 3, false) }
func cmpI(m *sim.Machine, in *sim.Inst) error { return sub(m, in, in.Ops[1].Imm, 4, false) }
func cmpM(m *sim.Machine, in *sim.Inst) error { return sub(m, in, m.MemByte(&in.Ops[1]), 3, false) }
func andR(m *sim.Machine, in *sim.Inst) error { return and(m, in, m.Get(in.Ops[1].Slot), 3) }
func andI(m *sim.Machine, in *sim.Inst) error { return and(m, in, in.Ops[1].Imm, 4) }
func andM(m *sim.Machine, in *sim.Inst) error { return and(m, in, m.MemByte(&in.Ops[1]), 3) }

// LF models the carry/borrow flag the jb/jae branches read: add and the
// subtractive forms set it from the operands.
func add(m *sim.Machine, in *sim.Inst, b, cycles uint64) error {
	a := m.Get(in.Ops[0].Slot)
	r := m.Mask(a + b)
	m.ZF, m.LF = r == 0, m.Mask(a) < m.Mask(b)
	m.Set(in.Ops[0].Slot, r)
	m.Cycles += cycles
	return nil
}

// sub is sub, and cmp when it does not write the result back.
func sub(m *sim.Machine, in *sim.Inst, b, cycles uint64, write bool) error {
	a := m.Get(in.Ops[0].Slot)
	r := m.Mask(a - b)
	m.ZF, m.LF = r == 0, m.Mask(a) < m.Mask(b)
	if write {
		m.Set(in.Ops[0].Slot, r)
	}
	m.Cycles += cycles
	return nil
}

// and always clears CF on the 8086.
func and(m *sim.Machine, in *sim.Inst, b, cycles uint64) error {
	r := m.Mask(m.Get(in.Ops[0].Slot) & b)
	m.ZF, m.LF = r == 0, false
	m.Set(in.Ops[0].Slot, r)
	m.Cycles += cycles
	return nil
}

func inc(m *sim.Machine, in *sim.Inst) error {
	return incDec(m, in.Ops[0].Slot, m.Get(in.Ops[0].Slot)+1)
}

func dec(m *sim.Machine, in *sim.Inst) error {
	return incDec(m, in.Ops[0].Slot, m.Get(in.Ops[0].Slot)-1)
}

// incDec finishes inc and dec: v is the register's new, unmasked value.
func incDec(m *sim.Machine, r int, v uint64) error {
	m.Set(r, v)
	m.ZF = m.Mask(v) == 0
	m.Cycles += 3
	return nil
}

// xlat: al <- Mb[bx + al], the 8086 table-translate instruction.
func xlat(m *sim.Machine, _ *sim.Inst) error {
	m.Set(al, uint64(m.LoadByte(m.Get(bx)+m.Get(al)&0xff)))
	m.Cycles += 11
	return nil
}

func cld(m *sim.Machine, _ *sim.Inst) error {
	m.DF = false
	m.Cycles += 2
	return nil
}

func std(m *sim.Machine, _ *sim.Inst) error {
	m.DF = true
	m.Cycles += 2
	return nil
}

func jmp(m *sim.Machine, in *sim.Inst) error {
	m.Cycles += 15
	return m.Jump(&in.Ops[0])
}

func jz(m *sim.Machine, in *sim.Inst) error  { return branch(m, in, m.ZF) }
func jnz(m *sim.Machine, in *sim.Inst) error { return branch(m, in, !m.ZF) }
func jb(m *sim.Machine, in *sim.Inst) error  { return branch(m, in, m.LF) }
func jae(m *sim.Machine, in *sim.Inst) error { return branch(m, in, !m.LF) }

// branch finishes a conditional jump: 16 cycles taken, 4 not.
func branch(m *sim.Machine, in *sim.Inst, take bool) error {
	if take {
		m.Cycles += 16
		return m.Jump(&in.Ops[0])
	}
	m.Cycles += 4
	return nil
}

func loop(m *sim.Machine, in *sim.Inst) error {
	n := m.Mask(m.Get(cx) - 1)
	m.Set(cx, n)
	if n != 0 {
		m.Cycles += 17
		return m.Jump(&in.Ops[0])
	}
	m.Cycles += 5
	return nil
}

func repMovsb(m *sim.Machine, _ *sim.Inst) error {
	n := m.Get(cx)
	for m.Get(cx) != 0 {
		m.StoreByte(m.Get(di), m.LoadByte(m.Get(si)))
		m.Set(si, step(m, m.Get(si)))
		m.Set(di, step(m, m.Get(di)))
		m.Set(cx, m.Get(cx)-1)
	}
	m.Cycles += 9 + 17*n
	return nil
}

func repStosb(m *sim.Machine, _ *sim.Inst) error {
	n := m.Get(cx)
	for m.Get(cx) != 0 {
		m.StoreByte(m.Get(di), byte(m.Get(al)))
		m.Set(di, step(m, m.Get(di)))
		m.Set(cx, m.Get(cx)-1)
	}
	m.Cycles += 9 + 10*n
	return nil
}

func repneScasb(m *sim.Machine, _ *sim.Inst) error {
	reps := uint64(0)
	for m.Get(cx) != 0 {
		reps++
		m.Set(cx, m.Get(cx)-1)
		b := m.LoadByte(m.Get(di))
		m.Set(di, step(m, m.Get(di)))
		m.ZF = uint64(b) == m.Get(al)&0xff
		if m.ZF {
			break
		}
	}
	m.Cycles += 9 + 15*reps
	return nil
}

func repeCmpsb(m *sim.Machine, _ *sim.Inst) error {
	reps := uint64(0)
	for m.Get(cx) != 0 {
		reps++
		m.Set(cx, m.Get(cx)-1)
		a := m.LoadByte(m.Get(si))
		b := m.LoadByte(m.Get(di))
		m.Set(si, step(m, m.Get(si)))
		m.Set(di, step(m, m.Get(di)))
		m.ZF = a == b
		if !m.ZF {
			break
		}
	}
	m.Cycles += 9 + 22*reps
	return nil
}

// step advances a string pointer in the df direction.
func step(m *sim.Machine, v uint64) uint64 {
	if m.DF {
		return v - 1
	}
	return v + 1
}
