// Package vax simulates the VAX-11 subset the retargetable code generator
// emits: longword moves and arithmetic, branches, the loop-closing sobgtr,
// and the character-string instructions movc3, movc5, locc and cmpc3.
//
// Operand order is destination-first throughout (diverging from VAX
// assembler's source-first convention) so listings read uniformly across
// the three targets. Registers are 32 bits. Cycle costs are a synthetic
// calibration of a mid-range VAX-11/780: simple register instructions cost
// a few cycles, memory traffic more, and the microcoded string instructions
// a setup cost plus a small per-byte cost — the relationship the paper's
// motivation depends on, not the absolute numbers.
package vax

import (
	"fmt"

	"extra/internal/sim"
)

// Slots of the result registers the string instructions write without
// naming them, in the order of isa.Regs.
const (
	r0 = iota
	r1
	r3
)

var isa = &sim.ISA{Name: "VAX-11", Bits: 32, Regs: []string{"r0", "r1", "r3"}, Decode: decode}

// ISA returns the VAX-11 instruction set simulator.
func ISA() *sim.ISA { return isa }

// decode picks one handler per mnemonic and operand form. The character
// string instructions take one handler each: they read their three or
// five value operands with m.Val, once per instruction, not per byte.
func decode(mn string, ops []sim.Op) sim.Handler {
	switch mn {
	case "nop":
		return sim.Nop
	case "hlt":
		return hlt
	case "out":
		return sim.ByValue(ops, 0, outR, outI, outM)
	case "movl":
		dst, src := sim.KindAt(ops, 0), sim.KindAt(ops, 1)
		switch {
		case dst == sim.KReg && src == sim.KReg:
			return movlRR
		case dst == sim.KReg && src == sim.KImm:
			return movlRI
		case dst == sim.KReg && src == sim.KMem:
			return movlRM
		case dst == sim.KMem && src == sim.KReg:
			return movlMR
		}
		return movlForms
	case "movb":
		dst, src := sim.KindAt(ops, 0), sim.KindAt(ops, 1)
		switch {
		case dst == sim.KReg && src == sim.KMem:
			return movbRM
		case dst == sim.KMem && src == sim.KReg:
			return movbMR
		case dst == sim.KMem && src == sim.KImm:
			return movbMI
		}
		return movbForms
	case "addl":
		return sim.ByValue(ops, 1, addlR, addlI, addlM)
	case "subl":
		return sim.ByValue(ops, 1, sublR, sublI, sublM)
	case "cmpl":
		return sim.ByValue(ops, 1, cmplR, cmplI, cmplM)
	case "andl":
		return sim.ByValue(ops, 1, andlR, andlI, andlM)
	case "tstl":
		return tstl
	case "incl":
		return incl
	case "decl":
		return decl
	case "brb":
		return brb
	case "beql":
		return beql
	case "bneq":
		return bneq
	case "blss":
		return blss
	case "bgeq":
		return bgeq
	case "sobgtr":
		return sobgtr
	case "movc3":
		return movc3
	case "movc5":
		return movc5
	case "locc":
		return locc
	case "cmpc3":
		return cmpc3
	}
	return unknown
}

func unknown(m *sim.Machine, in *sim.Inst) error {
	return fmt.Errorf("vax: unknown instruction %q", m.Mnemonic(in))
}

// vals evaluates the instruction's leading operands into dst, in order,
// and returns the error of the first that is not a value.
func vals(m *sim.Machine, in *sim.Inst, dst ...*uint64) error {
	for i, p := range dst {
		v, err := m.Val(&in.Ops[i])
		if err != nil {
			return err
		}
		*p = v
	}
	return nil
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
	m.Cycles += 5
	m.Out = append(m.Out, v)
	return nil
}

func movlRR(m *sim.Machine, in *sim.Inst) error {
	m.Set(in.Ops[0].Slot, m.Get(in.Ops[1].Slot))
	m.Cycles += 2
	return nil
}

func movlRI(m *sim.Machine, in *sim.Inst) error {
	m.Set(in.Ops[0].Slot, in.Ops[1].Imm)
	m.Cycles += 3
	return nil
}

func movlRM(m *sim.Machine, in *sim.Inst) error {
	m.Set(in.Ops[0].Slot, m.LoadWord(m.EA(&in.Ops[1])))
	m.Cycles += 6
	return nil
}

func movlMR(m *sim.Machine, in *sim.Inst) error {
	m.StoreWord(m.EA(&in.Ops[0]), m.Get(in.Ops[1].Slot))
	m.Cycles += 6
	return nil
}

func movlForms(_ *sim.Machine, in *sim.Inst) error {
	return fmt.Errorf("vax: unsupported movl forms %s, %s", &in.Ops[0], &in.Ops[1])
}

func movbRM(m *sim.Machine, in *sim.Inst) error {
	m.Set(in.Ops[0].Slot, m.MemByte(&in.Ops[1]))
	m.Cycles += 5
	return nil
}

func movbMR(m *sim.Machine, in *sim.Inst) error {
	m.StoreByte(m.EA(&in.Ops[0]), byte(m.Get(in.Ops[1].Slot)))
	m.Cycles += 5
	return nil
}

func movbMI(m *sim.Machine, in *sim.Inst) error {
	m.StoreByte(m.EA(&in.Ops[0]), byte(in.Ops[1].Imm))
	m.Cycles += 5
	return nil
}

func movbForms(_ *sim.Machine, in *sim.Inst) error {
	return fmt.Errorf("vax: unsupported movb forms %s, %s", &in.Ops[0], &in.Ops[1])
}

// addl, subl, cmpl and andl read the destination as a register whatever
// its form, cost 3 cycles, and set LF from the operands, andl too.

func addlR(m *sim.Machine, in *sim.Inst) error { return addl(m, in, m.Get(in.Ops[1].Slot)) }
func addlI(m *sim.Machine, in *sim.Inst) error { return addl(m, in, in.Ops[1].Imm) }
func addlM(m *sim.Machine, in *sim.Inst) error { return addl(m, in, m.MemByte(&in.Ops[1])) }
func sublR(m *sim.Machine, in *sim.Inst) error { return subl(m, in, m.Get(in.Ops[1].Slot), true) }
func sublI(m *sim.Machine, in *sim.Inst) error { return subl(m, in, in.Ops[1].Imm, true) }
func sublM(m *sim.Machine, in *sim.Inst) error { return subl(m, in, m.MemByte(&in.Ops[1]), true) }
func cmplR(m *sim.Machine, in *sim.Inst) error { return subl(m, in, m.Get(in.Ops[1].Slot), false) }
func cmplI(m *sim.Machine, in *sim.Inst) error { return subl(m, in, in.Ops[1].Imm, false) }
func cmplM(m *sim.Machine, in *sim.Inst) error { return subl(m, in, m.MemByte(&in.Ops[1]), false) }
func andlR(m *sim.Machine, in *sim.Inst) error { return andl(m, in, m.Get(in.Ops[1].Slot)) }
func andlI(m *sim.Machine, in *sim.Inst) error { return andl(m, in, in.Ops[1].Imm) }
func andlM(m *sim.Machine, in *sim.Inst) error { return andl(m, in, m.MemByte(&in.Ops[1])) }

func addl(m *sim.Machine, in *sim.Inst, b uint64) error {
	a := m.Get(in.Ops[0].Slot)
	r := m.Mask(a + b)
	m.ZF, m.LF = r == 0, m.Mask(a) < m.Mask(b)
	m.Set(in.Ops[0].Slot, r)
	m.Cycles += 3
	return nil
}

// subl is subl, and cmpl when it does not write the result back.
func subl(m *sim.Machine, in *sim.Inst, b uint64, write bool) error {
	a := m.Get(in.Ops[0].Slot)
	r := m.Mask(a - b)
	m.ZF, m.LF = r == 0, m.Mask(a) < m.Mask(b)
	if write {
		m.Set(in.Ops[0].Slot, r)
	}
	m.Cycles += 3
	return nil
}

// andl: the hardware spells this bicl with the complemented mask.
func andl(m *sim.Machine, in *sim.Inst, b uint64) error {
	a := m.Get(in.Ops[0].Slot)
	r := m.Mask(a & b)
	m.ZF, m.LF = r == 0, m.Mask(a) < m.Mask(b)
	m.Set(in.Ops[0].Slot, r)
	m.Cycles += 3
	return nil
}

func tstl(m *sim.Machine, in *sim.Inst) error {
	m.ZF = m.Get(in.Ops[0].Slot) == 0
	m.LF = false
	m.Cycles += 2
	return nil
}

func incl(m *sim.Machine, in *sim.Inst) error {
	return incDec(m, in.Ops[0].Slot, m.Get(in.Ops[0].Slot)+1)
}

func decl(m *sim.Machine, in *sim.Inst) error {
	return incDec(m, in.Ops[0].Slot, m.Get(in.Ops[0].Slot)-1)
}

// incDec finishes incl and decl: v is the register's new, unmasked value.
func incDec(m *sim.Machine, r int, v uint64) error {
	m.Set(r, v)
	m.ZF = m.Mask(v) == 0
	m.Cycles += 3
	return nil
}

func brb(m *sim.Machine, in *sim.Inst) error {
	m.Cycles += 5
	return m.Jump(&in.Ops[0])
}

func beql(m *sim.Machine, in *sim.Inst) error { return branch(m, in, m.ZF) }
func bneq(m *sim.Machine, in *sim.Inst) error { return branch(m, in, !m.ZF) }
func blss(m *sim.Machine, in *sim.Inst) error { return branch(m, in, m.LF) }
func bgeq(m *sim.Machine, in *sim.Inst) error { return branch(m, in, !m.LF) }

// branch finishes a conditional branch: 5 cycles taken, 3 not.
func branch(m *sim.Machine, in *sim.Inst, take bool) error {
	if take {
		m.Cycles += 5
		return m.Jump(&in.Ops[0])
	}
	m.Cycles += 3
	return nil
}

// sobgtr subtracts one and branches if *greater than zero*: the VAX loop
// closer. The comparison is signed — decrementing an entry value of 0
// yields -1 (top bit set), which must fall through, not loop for another
// 2^32 iterations.
func sobgtr(m *sim.Machine, in *sim.Inst) error {
	r := in.Ops[0].Slot
	v := m.Mask(m.Get(r) - 1)
	m.Set(r, v)
	m.Cycles += 6
	if v != 0 && v&0x8000_0000 == 0 {
		return m.Jump(&in.Ops[1])
	}
	return nil
}

// movc3 len, src, dst — with movc3's overlap protection. Leaves r0 = 0 and
// r1/r3 at the corpus description's final pointers: one past the end
// after a forward move, but the *original* addresses after a backward
// (overlap-protected) move, where the description walks the pointers up
// and then back down. Real hardware always leaves r1/r3 one past the end;
// the description is this reproduction's semantic ground truth, so the
// simulator follows it and the delta is documented here.
func movc3(m *sim.Machine, in *sim.Inst) error {
	var ln, src, dst uint64
	if err := vals(m, in, &ln, &src, &dst); err != nil {
		return err
	}
	ln &= 0xffff // the hardware length field is 16 bits
	end1, end3 := src+ln, dst+ln
	if src < dst {
		for i := ln; i > 0; i-- {
			m.StoreByte(dst+i-1, m.LoadByte(src+i-1))
		}
		end1, end3 = src, dst
	} else {
		for i := uint64(0); i < ln; i++ {
			m.StoreByte(dst+i, m.LoadByte(src+i))
		}
	}
	m.Set(r0, 0)
	m.Set(r1, end1)
	m.Set(r3, end3)
	m.Cycles += 40 + 3*ln
	return nil
}

// movc5 srclen, src, fill, dstlen, dst.
func movc5(m *sim.Machine, in *sim.Inst) error {
	var srclen, src, fill, dstlen, dst uint64
	if err := vals(m, in, &srclen, &src, &fill, &dstlen, &dst); err != nil {
		return err
	}
	srclen &= 0xffff
	dstlen &= 0xffff
	moved := uint64(0)
	for moved < srclen && moved < dstlen {
		m.StoreByte(dst+moved, m.LoadByte(src+moved))
		moved++
	}
	filled := uint64(0)
	for moved+filled < dstlen {
		m.StoreByte(dst+moved+filled, byte(fill))
		filled++
	}
	// Result registers, matching the corpus description's final
	// pointers: r1 one past the last source byte moved, r3 one past the
	// end of the destination; r0 counts the source bytes that did not
	// fit. The register-preference pass already treats r0/r1/r3 as
	// movc5 clobbers — before this they were clobbered in name only.
	m.Set(r0, srclen-moved)
	m.Set(r1, src+moved)
	m.Set(r3, dst+dstlen)
	m.Cycles += 50 + 3*moved + 2*filled
	return nil
}

// locc char, len, addr — results in r0 (bytes remaining including the
// located one; 0 when absent) and r1 (address of the located byte, or one
// past the end). Z is set when the byte was not found.
func locc(m *sim.Machine, in *sim.Inst) error {
	var ch, ln, addr uint64
	if err := vals(m, in, &ch, &ln, &addr); err != nil {
		return err
	}
	ln &= 0xffff // 16-bit length field
	left, at := ln, addr
	scanned := uint64(0)
	for left != 0 {
		scanned++
		if uint64(m.LoadByte(at)) == ch&0xff {
			break
		}
		at++
		left--
	}
	m.Set(r0, left)
	m.Set(r1, at)
	m.ZF = left == 0
	m.Cycles += 30 + 4*scanned
	return nil
}

// cmpc3 len, a1, a2 — compares until mismatch; r0 holds the bytes
// remaining (0 when equal), r1/r3 the positions. Z set when equal.
func cmpc3(m *sim.Machine, in *sim.Inst) error {
	var ln, a1, a2 uint64
	if err := vals(m, in, &ln, &a1, &a2); err != nil {
		return err
	}
	ln &= 0xffff // 16-bit length field
	left, p1, p2 := ln, a1, a2
	scanned := uint64(0)
	for left != 0 {
		scanned++
		if m.LoadByte(p1) != m.LoadByte(p2) {
			break
		}
		p1++
		p2++
		left--
	}
	m.Set(r0, left)
	m.Set(r1, p1)
	m.Set(r3, p2)
	m.ZF = left == 0
	m.Cycles += 30 + 4*scanned
	return nil
}
