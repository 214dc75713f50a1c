package sim_test

import (
	"fmt"

	"extra/internal/sim"
)

// Slots of the result registers the string instructions write without
// naming them, in the order of the ISA's Regs.
const (
	r0 = iota
	r1
	r3
)

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

// execVAX is the reference executor the VAX-11 handlers are held to: one
// switch on the mnemonic string, then on operand forms, as the simulator
// ran before NewMachine decoded each instruction to its handler.
func execVAX(m *sim.Machine, mn string, in *sim.Inst) error {
	switch mn {
	case "nop":
		return nil
	case "hlt":
		m.Cycles++
		m.Halted = true
		return nil
	case "out":
		v, err := m.Val(&in.Ops[0])
		if err != nil {
			return err
		}
		m.Cycles += 5
		m.Out = append(m.Out, v)
		return nil
	case "movl":
		dst, src := &in.Ops[0], &in.Ops[1]
		switch {
		case dst.Kind == sim.KReg && src.Kind == sim.KReg:
			m.Set(dst.Slot, m.Get(src.Slot))
			m.Cycles += 2
		case dst.Kind == sim.KReg && src.Kind == sim.KImm:
			m.Set(dst.Slot, src.Imm)
			m.Cycles += 3
		case dst.Kind == sim.KReg && src.Kind == sim.KMem:
			m.Set(dst.Slot, m.LoadWord(m.EA(src)))
			m.Cycles += 6
		case dst.Kind == sim.KMem && src.Kind == sim.KReg:
			m.StoreWord(m.EA(dst), m.Get(src.Slot))
			m.Cycles += 6
		default:
			return fmt.Errorf("vax: unsupported movl forms %s, %s", dst, src)
		}
		return nil
	case "movb":
		dst, src := &in.Ops[0], &in.Ops[1]
		switch {
		case dst.Kind == sim.KReg && src.Kind == sim.KMem:
			m.Set(dst.Slot, uint64(m.LoadByte(m.EA(src))))
			m.Cycles += 5
		case dst.Kind == sim.KMem && src.Kind == sim.KReg:
			m.StoreByte(m.EA(dst), byte(m.Get(src.Slot)))
			m.Cycles += 5
		case dst.Kind == sim.KMem && src.Kind == sim.KImm:
			m.StoreByte(m.EA(dst), byte(src.Imm))
			m.Cycles += 5
		default:
			return fmt.Errorf("vax: unsupported movb forms %s, %s", dst, src)
		}
		return nil
	case "addl", "subl", "cmpl", "andl":
		if in.Ops[0].Kind != sim.KReg {
			return fmt.Errorf("vax: unsupported %s forms %s, %s", mn, &in.Ops[0], &in.Ops[1])
		}
		a := m.Get(in.Ops[0].Slot)
		b, err := m.Val(&in.Ops[1])
		if err != nil {
			return err
		}
		var r uint64
		switch mn {
		case "addl":
			r = a + b
		case "andl":
			// The hardware spells this bicl with the complemented mask.
			r = a & b
		default:
			r = a - b
		}
		r = m.Mask(r)
		m.ZF = r == 0
		m.LF = m.Mask(a) < m.Mask(b)
		if mn != "cmpl" {
			m.Set(in.Ops[0].Slot, r)
		}
		m.Cycles += 3
		return nil
	case "tstl":
		if in.Ops[0].Kind != sim.KReg {
			return fmt.Errorf("vax: unsupported tstl forms %s", &in.Ops[0])
		}
		m.ZF = m.Get(in.Ops[0].Slot) == 0
		m.LF = false
		m.Cycles += 2
		return nil
	case "incl", "decl":
		if in.Ops[0].Kind != sim.KReg {
			return fmt.Errorf("vax: unsupported %s forms %s", mn, &in.Ops[0])
		}
		r := in.Ops[0].Slot
		v := m.Get(r)
		if mn == "incl" {
			v++
		} else {
			v--
		}
		m.Set(r, v)
		m.ZF = m.Mask(v) == 0
		m.Cycles += 3
		return nil
	case "brb":
		m.Cycles += 5
		return m.Jump(&in.Ops[0])
	case "beql", "bneq", "blss", "bgeq":
		take := false
		switch mn {
		case "beql":
			take = m.ZF
		case "bneq":
			take = !m.ZF
		case "blss":
			take = m.LF
		case "bgeq":
			take = !m.LF
		}
		if take {
			m.Cycles += 5
			return m.Jump(&in.Ops[0])
		}
		m.Cycles += 3
		return nil
	case "sobgtr":
		// Subtract one and branch if *greater than zero*: the VAX loop
		// closer. The comparison is signed — decrementing an entry value of
		// 0 yields -1 (top bit set), which must fall through, not loop for
		// another 2^32 iterations.
		if in.Ops[0].Kind != sim.KReg {
			return fmt.Errorf("vax: unsupported sobgtr forms %s, %s", &in.Ops[0], &in.Ops[1])
		}
		r := in.Ops[0].Slot
		v := m.Mask(m.Get(r) - 1)
		m.Set(r, v)
		m.Cycles += 6
		if v != 0 && v&0x8000_0000 == 0 {
			return m.Jump(&in.Ops[1])
		}
		return nil
	case "movc3":
		// movc3 len, src, dst — with movc3's overlap protection. Leaves
		// r0 = 0 and r1/r3 at the corpus description's final pointers: one
		// past the end after a forward move, but the *original* addresses
		// after a backward (overlap-protected) move, where the description
		// walks the pointers up and then back down. Real hardware always
		// leaves r1/r3 one past the end; the description is this
		// reproduction's semantic ground truth, so the simulator follows it
		// and the delta is documented here.
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
	case "movc5":
		// movc5 srclen, src, fill, dstlen, dst.
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
	case "locc":
		// locc char, len, addr — results in r0 (bytes remaining including
		// the located one; 0 when absent) and r1 (address of the located
		// byte, or one past the end). Z is set when the byte was not found.
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
	case "cmpc3":
		// cmpc3 len, a1, a2 — compares until mismatch; r0 holds the bytes
		// remaining (0 when equal), r1/r3 the positions. Z set when equal.
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
	return fmt.Errorf("vax: unknown instruction %q", mn)
}
