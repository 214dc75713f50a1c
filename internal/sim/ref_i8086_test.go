package sim_test

import (
	"fmt"

	"extra/internal/sim"
)

// Slots of the registers the string instructions and xlat use without
// naming them, in the order of the ISA's Regs.
const (
	cx = iota
	si
	di
	al
	bx
)

// exec8086 is the reference executor the 8086 handlers are held to: one
// switch on the mnemonic string, then on operand forms, as the simulator
// ran before NewMachine decoded each instruction to its handler.
func exec8086(m *sim.Machine, mn string, in *sim.Inst) error {
	switch mn {
	case "nop":
		return nil
	case "hlt":
		m.Cycles += 2
		m.Halted = true
		return nil
	case "out":
		v, err := m.Val(&in.Ops[0])
		if err != nil {
			return err
		}
		m.Cycles += 8
		m.Out = append(m.Out, v)
		return nil
	case "mov":
		return movByte(m, in)
	case "movw":
		return movWord(m, in)
	case "add", "sub", "cmp", "and":
		return arith(m, mn, in)
	case "inc", "dec":
		r := in.Ops[0].Slot
		v := m.Get(r)
		if mn == "inc" {
			v++
		} else {
			v--
		}
		m.Set(r, v)
		m.ZF = m.Mask(v) == 0
		m.Cycles += 3
		return nil
	case "xlat":
		// al <- Mb[bx + al]: the 8086 table-translate instruction.
		m.Set(al, uint64(m.LoadByte(m.Get(bx)+m.Get(al)&0xff)))
		m.Cycles += 11
		return nil
	case "cld":
		m.DF = false
		m.Cycles += 2
		return nil
	case "std":
		m.DF = true
		m.Cycles += 2
		return nil
	case "jmp":
		m.Cycles += 15
		return m.Jump(&in.Ops[0])
	case "jz", "jnz", "jb", "jae":
		take := false
		switch mn {
		case "jz":
			take = m.ZF
		case "jnz":
			take = !m.ZF
		case "jb":
			take = m.LF
		case "jae":
			take = !m.LF
		}
		if take {
			m.Cycles += 16
			return m.Jump(&in.Ops[0])
		}
		m.Cycles += 4
		return nil
	case "loop":
		n := m.Mask(m.Get(cx) - 1)
		m.Set(cx, n)
		if n != 0 {
			m.Cycles += 17
			return m.Jump(&in.Ops[0])
		}
		m.Cycles += 5
		return nil
	case "rep_movsb":
		n := m.Get(cx)
		for m.Get(cx) != 0 {
			m.StoreByte(m.Get(di), m.LoadByte(m.Get(si)))
			m.Set(si, step(m, m.Get(si)))
			m.Set(di, step(m, m.Get(di)))
			m.Set(cx, m.Get(cx)-1)
		}
		m.Cycles += 9 + 17*n
		return nil
	case "rep_stosb":
		n := m.Get(cx)
		for m.Get(cx) != 0 {
			m.StoreByte(m.Get(di), byte(m.Get(al)))
			m.Set(di, step(m, m.Get(di)))
			m.Set(cx, m.Get(cx)-1)
		}
		m.Cycles += 9 + 10*n
		return nil
	case "repne_scasb":
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
	case "repe_cmpsb":
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
	return fmt.Errorf("i8086: unknown instruction %q", mn)
}

// step advances a string pointer in the df direction.
func step(m *sim.Machine, v uint64) uint64 {
	if m.DF {
		return v - 1
	}
	return v + 1
}

// movByte implements mov: register/immediate moves and byte memory access.
func movByte(m *sim.Machine, in *sim.Inst) error {
	dst, src := &in.Ops[0], &in.Ops[1]
	switch {
	case dst.Kind == sim.KReg && src.Kind == sim.KReg:
		m.Set(dst.Slot, m.Get(src.Slot))
		m.Cycles += 2
	case dst.Kind == sim.KReg && src.Kind == sim.KImm:
		m.Set(dst.Slot, src.Imm)
		m.Cycles += 4
	case dst.Kind == sim.KReg && src.Kind == sim.KMem:
		m.Set(dst.Slot, uint64(m.LoadByte(m.EA(src))))
		m.Cycles += 12
	case dst.Kind == sim.KMem && src.Kind == sim.KReg:
		m.StoreByte(m.EA(dst), byte(m.Get(src.Slot)))
		m.Cycles += 13
	case dst.Kind == sim.KMem && src.Kind == sim.KImm:
		m.StoreByte(m.EA(dst), byte(src.Imm))
		m.Cycles += 14
	default:
		return fmt.Errorf("i8086: unsupported mov forms %s, %s", dst, src)
	}
	return nil
}

// movWord implements 16-bit variable loads and stores.
func movWord(m *sim.Machine, in *sim.Inst) error {
	dst, src := &in.Ops[0], &in.Ops[1]
	switch {
	case dst.Kind == sim.KReg && src.Kind == sim.KMem:
		m.Set(dst.Slot, m.LoadWord(m.EA(src)))
		m.Cycles += 12
	case dst.Kind == sim.KMem && src.Kind == sim.KReg:
		m.StoreWord(m.EA(dst), m.Get(src.Slot))
		m.Cycles += 13
	default:
		return fmt.Errorf("i8086: unsupported movw forms %s, %s", dst, src)
	}
	return nil
}

func arith(m *sim.Machine, mn string, in *sim.Inst) error {
	a := m.Get(in.Ops[0].Slot)
	b, err := m.Val(&in.Ops[1])
	if err != nil {
		return err
	}
	var r uint64
	switch mn {
	case "add":
		r = a + b
	case "sub", "cmp":
		r = a - b
	case "and":
		r = a & b
	}
	r = m.Mask(r)
	m.ZF = r == 0
	// LF models the carry/borrow flag the jb/jae branches read. AND always
	// clears CF on the 8086; only the subtractive forms compute a borrow.
	if mn == "and" {
		m.LF = false
	} else {
		m.LF = m.Mask(a) < m.Mask(b)
	}
	if mn != "cmp" {
		m.Set(in.Ops[0].Slot, r)
	}
	if in.Ops[1].Kind == sim.KImm {
		m.Cycles += 4
	} else {
		m.Cycles += 3
	}
	return nil
}
