// Package ibm370 simulates the IBM System/370 subset the retargetable code
// generator emits: register moves and arithmetic, insert/store character,
// branch-on-count loops, and the storage-to-storage instructions mvc, clc
// and mvi. The mvc length operand is the hardware's encoded field — the
// instruction moves length+1 bytes — so the coding constraint discovered by
// the mvc/sassign analysis (compiler loads Len-1) is visible in generated
// code. Like the hardware, mvc moves strictly left to right, which is what
// makes the classic overlapping-mvc fill idiom work.
//
// Registers are 32 bits. Cycle costs are a synthetic calibration of a
// S/370 Model 158: one to two cycles for register instructions, a setup
// cost plus one cycle per byte for the SS-format instructions.
package ibm370

import (
	"fmt"

	"extra/internal/sim"
)

var isa = &sim.ISA{Name: "IBM 370", Bits: 32, Decode: decode}

// ISA returns the IBM 370 instruction set simulator.
func ISA() *sim.ISA { return isa }

// decode picks one handler per mnemonic and operand form. The SS-format
// instructions take one handler each: they read their length code with
// m.Val, once per instruction, not per byte.
func decode(mn string, ops []sim.Op) sim.Handler {
	switch mn {
	case "nop":
		return sim.Nop
	case "hlt":
		return hlt
	case "out":
		return sim.ByValue(ops, 0, outR, outI, outM)
	case "la": // load address: register <- immediate or register+disp
		if sim.NotReg(ops, 0) {
			return forms
		}
		switch sim.KindAt(ops, 1) {
		case sim.KImm:
			return laI
		case sim.KMem:
			return laM
		case sim.KReg:
			return laR
		}
		return laSource
	case "lr":
		if sim.NotReg(ops, 0, 1) {
			return forms
		}
		return lr
	case "l":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return loadWord
	case "st":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return st
	case "ic":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return ic
	case "stc":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return stc
	case "ar":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return sim.ByValue(ops, 1, arR, arI, arM)
	case "sr":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return sim.ByValue(ops, 1, srR, srI, srM)
	case "cr":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return sim.ByValue(ops, 1, crR, crI, crM)
	case "nr":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return sim.ByValue(ops, 1, nrR, nrI, nrM)
	case "b":
		return jump
	case "be":
		return be
	case "bne":
		return bne
	case "bl":
		return bl
	case "bnl":
		return bnl
	case "bct":
		if sim.NotReg(ops, 0) {
			return forms
		}
		return bct
	case "mvi":
		return mvi
	case "mvc":
		return mvc
	case "tr":
		return tr
	case "clc":
		return clc
	}
	return unknown
}

func unknown(m *sim.Machine, in *sim.Inst) error {
	return fmt.Errorf("ibm370: unknown instruction %q", m.Mnemonic(in))
}

// forms refuses an instruction with an operand that is not a register
// where the instruction takes one.
func forms(m *sim.Machine, in *sim.Inst) error {
	return fmt.Errorf("ibm370: unsupported %s forms %s, %s", m.Mnemonic(in), &in.Ops[0], &in.Ops[1])
}

func hlt(m *sim.Machine, _ *sim.Inst) error {
	m.Cycles++
	m.Halted = true
	return nil
}

func outR(m *sim.Machine, in *sim.Inst) error { return out(m, m.Get(in.Ops[0].Slot)) }
func outI(m *sim.Machine, in *sim.Inst) error { return out(m, in.Ops[0].Imm) }
func outM(m *sim.Machine, in *sim.Inst) error { return out(m, m.MemByte(&in.Ops[0])) }

func out(m *sim.Machine, v uint64) error {
	m.Cycles += 2
	m.Out = append(m.Out, v)
	return nil
}

func laI(m *sim.Machine, in *sim.Inst) error { return setReg(m, in, in.Ops[1].Imm) }
func laM(m *sim.Machine, in *sim.Inst) error { return setReg(m, in, m.EA(&in.Ops[1])) }
func laR(m *sim.Machine, in *sim.Inst) error { return setReg(m, in, m.Get(in.Ops[1].Slot)) }

func laSource(_ *sim.Machine, in *sim.Inst) error {
	return fmt.Errorf("ibm370: unsupported la source %s", &in.Ops[1])
}

// lr: register move.
func lr(m *sim.Machine, in *sim.Inst) error { return setReg(m, in, m.Get(in.Ops[1].Slot)) }

// setReg finishes la and lr: the first operand's register gets v, for a
// cycle.
func setReg(m *sim.Machine, in *sim.Inst, v uint64) error {
	m.Set(in.Ops[0].Slot, v)
	m.Cycles++
	return nil
}

// loadWord: l, load word.
func loadWord(m *sim.Machine, in *sim.Inst) error {
	m.Set(in.Ops[0].Slot, m.LoadWord(m.EA(&in.Ops[1])))
	m.Cycles += 2
	return nil
}

// st: store word.
func st(m *sim.Machine, in *sim.Inst) error {
	m.StoreWord(m.EA(&in.Ops[1]), m.Get(in.Ops[0].Slot))
	m.Cycles += 2
	return nil
}

// ic: insert character.
func ic(m *sim.Machine, in *sim.Inst) error {
	m.Set(in.Ops[0].Slot, m.MemByte(&in.Ops[1]))
	m.Cycles += 2
	return nil
}

// stc: store character.
func stc(m *sim.Machine, in *sim.Inst) error {
	m.StoreByte(m.EA(&in.Ops[1]), byte(m.Get(in.Ops[0].Slot)))
	m.Cycles += 2
	return nil
}

// ar, sr, cr and nr take a register first operand, cost a cycle, and set
// LF from the operands, nr too.

func arR(m *sim.Machine, in *sim.Inst) error { return ar(m, in, m.Get(in.Ops[1].Slot)) }
func arI(m *sim.Machine, in *sim.Inst) error { return ar(m, in, in.Ops[1].Imm) }
func arM(m *sim.Machine, in *sim.Inst) error { return ar(m, in, m.MemByte(&in.Ops[1])) }
func srR(m *sim.Machine, in *sim.Inst) error { return sr(m, in, m.Get(in.Ops[1].Slot), true) }
func srI(m *sim.Machine, in *sim.Inst) error { return sr(m, in, in.Ops[1].Imm, true) }
func srM(m *sim.Machine, in *sim.Inst) error { return sr(m, in, m.MemByte(&in.Ops[1]), true) }
func crR(m *sim.Machine, in *sim.Inst) error { return sr(m, in, m.Get(in.Ops[1].Slot), false) }
func crI(m *sim.Machine, in *sim.Inst) error { return sr(m, in, in.Ops[1].Imm, false) }
func crM(m *sim.Machine, in *sim.Inst) error { return sr(m, in, m.MemByte(&in.Ops[1]), false) }
func nrR(m *sim.Machine, in *sim.Inst) error { return nr(m, in, m.Get(in.Ops[1].Slot)) }
func nrI(m *sim.Machine, in *sim.Inst) error { return nr(m, in, in.Ops[1].Imm) }
func nrM(m *sim.Machine, in *sim.Inst) error { return nr(m, in, m.MemByte(&in.Ops[1])) }

func ar(m *sim.Machine, in *sim.Inst, b uint64) error {
	a := m.Get(in.Ops[0].Slot)
	r := m.Mask(a + b)
	m.ZF, m.LF = r == 0, m.Mask(a) < m.Mask(b)
	m.Set(in.Ops[0].Slot, r)
	m.Cycles++
	return nil
}

// sr is sr, and cr when it does not write the result back.
func sr(m *sim.Machine, in *sim.Inst, b uint64, write bool) error {
	a := m.Get(in.Ops[0].Slot)
	r := m.Mask(a - b)
	m.ZF, m.LF = r == 0, m.Mask(a) < m.Mask(b)
	if write {
		m.Set(in.Ops[0].Slot, r)
	}
	m.Cycles++
	return nil
}

func nr(m *sim.Machine, in *sim.Inst, b uint64) error {
	a := m.Get(in.Ops[0].Slot)
	r := m.Mask(a & b)
	m.ZF, m.LF = r == 0, m.Mask(a) < m.Mask(b)
	m.Set(in.Ops[0].Slot, r)
	m.Cycles++
	return nil
}

// jump: b, the unconditional branch.
func jump(m *sim.Machine, in *sim.Inst) error {
	m.Cycles += 2
	return m.Jump(&in.Ops[0])
}

func be(m *sim.Machine, in *sim.Inst) error  { return branch(m, in, m.ZF) }
func bne(m *sim.Machine, in *sim.Inst) error { return branch(m, in, !m.ZF) }
func bl(m *sim.Machine, in *sim.Inst) error  { return branch(m, in, m.LF) }
func bnl(m *sim.Machine, in *sim.Inst) error { return branch(m, in, !m.LF) }

// branch finishes a conditional branch: 2 cycles, taken or not.
func branch(m *sim.Machine, in *sim.Inst, take bool) error {
	m.Cycles += 2
	if take {
		return m.Jump(&in.Ops[0])
	}
	return nil
}

// bct: branch on count, decrement and branch while nonzero.
func bct(m *sim.Machine, in *sim.Inst) error {
	r := in.Ops[0].Slot
	v := m.Mask(m.Get(r) - 1)
	m.Set(r, v)
	m.Cycles += 2
	if v != 0 {
		return m.Jump(&in.Ops[1])
	}
	return nil
}

// mvi: move immediate byte to storage.
func mvi(m *sim.Machine, in *sim.Inst) error {
	m.StoreByte(m.EA(&in.Ops[0]), byte(in.Ops[1].Imm))
	m.Cycles += 2
	return nil
}

// mvc lencode, dst, src — moves lencode+1 bytes, strictly left to right
// (byte by byte), which overlapping-operand idioms rely on.
func mvc(m *sim.Machine, in *sim.Inst) error {
	lc, err := m.Val(&in.Ops[0])
	if err != nil {
		return err
	}
	lc &= 0xff
	dst := m.EA(&in.Ops[1])
	src := m.EA(&in.Ops[2])
	n := lc + 1
	for i := uint64(0); i < n; i++ {
		m.StoreByte(dst+i, m.LoadByte(src+i))
	}
	m.Cycles += 5 + n
	return nil
}

// tr lencode, field, table — translates lencode+1 bytes in place through
// the 256-byte table.
func tr(m *sim.Machine, in *sim.Inst) error {
	lc, err := m.Val(&in.Ops[0])
	if err != nil {
		return err
	}
	lc &= 0xff
	field := m.EA(&in.Ops[1])
	table := m.EA(&in.Ops[2])
	n := lc + 1
	for i := uint64(0); i < n; i++ {
		m.StoreByte(field+i, m.LoadByte(table+uint64(m.LoadByte(field+i))))
	}
	m.Cycles += 5 + 2*n
	return nil
}

// clc lencode, a, b — compares lencode+1 bytes; Z set when equal.
func clc(m *sim.Machine, in *sim.Inst) error {
	lc, err := m.Val(&in.Ops[0])
	if err != nil {
		return err
	}
	lc &= 0xff
	a := m.EA(&in.Ops[1])
	b := m.EA(&in.Ops[2])
	n := lc + 1
	m.ZF = true
	scanned := uint64(0)
	for i := uint64(0); i < n; i++ {
		scanned++
		x, y := m.LoadByte(a+i), m.LoadByte(b+i)
		if x != y {
			m.ZF = false
			m.LF = x < y
			break
		}
	}
	m.Cycles += 5 + scanned
	return nil
}
