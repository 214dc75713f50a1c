package sim_test

import (
	"fmt"

	"extra/internal/sim"
)

// exec370 is the reference executor the IBM 370 handlers are held to: one
// switch on the mnemonic string, then on operand forms, as the simulator
// ran before NewMachine decoded each instruction to its handler.
func exec370(m *sim.Machine, mn string, in *sim.Inst) error {
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
		m.Cycles += 2
		m.Out = append(m.Out, v)
		return nil
	case "la": // load address: register <- immediate or register+disp
		dst, src := &in.Ops[0], &in.Ops[1]
		if dst.Kind != sim.KReg {
			return unsupported370(mn, in)
		}
		switch src.Kind {
		case sim.KImm:
			m.Set(dst.Slot, src.Imm)
		case sim.KMem:
			m.Set(dst.Slot, m.EA(src))
		case sim.KReg:
			m.Set(dst.Slot, m.Get(src.Slot))
		default:
			return fmt.Errorf("ibm370: unsupported la source %s", src)
		}
		m.Cycles++
		return nil
	case "lr": // register move
		if in.Ops[0].Kind != sim.KReg || in.Ops[1].Kind != sim.KReg {
			return unsupported370(mn, in)
		}
		m.Set(in.Ops[0].Slot, m.Get(in.Ops[1].Slot))
		m.Cycles++
		return nil
	case "l": // load word
		if in.Ops[0].Kind != sim.KReg {
			return unsupported370(mn, in)
		}
		m.Set(in.Ops[0].Slot, m.LoadWord(m.EA(&in.Ops[1])))
		m.Cycles += 2
		return nil
	case "st": // store word
		if in.Ops[0].Kind != sim.KReg {
			return unsupported370(mn, in)
		}
		m.StoreWord(m.EA(&in.Ops[1]), m.Get(in.Ops[0].Slot))
		m.Cycles += 2
		return nil
	case "ic": // insert character
		if in.Ops[0].Kind != sim.KReg {
			return unsupported370(mn, in)
		}
		m.Set(in.Ops[0].Slot, uint64(m.LoadByte(m.EA(&in.Ops[1]))))
		m.Cycles += 2
		return nil
	case "stc": // store character
		if in.Ops[0].Kind != sim.KReg {
			return unsupported370(mn, in)
		}
		m.StoreByte(m.EA(&in.Ops[1]), byte(m.Get(in.Ops[0].Slot)))
		m.Cycles += 2
		return nil
	case "ar", "sr", "cr", "nr":
		if in.Ops[0].Kind != sim.KReg {
			return unsupported370(mn, in)
		}
		a := m.Get(in.Ops[0].Slot)
		b, err := m.Val(&in.Ops[1])
		if err != nil {
			return err
		}
		var r uint64
		switch mn {
		case "ar":
			r = a + b
		case "nr":
			r = a & b
		default:
			r = a - b
		}
		r = m.Mask(r)
		m.ZF = r == 0
		m.LF = m.Mask(a) < m.Mask(b)
		if mn != "cr" {
			m.Set(in.Ops[0].Slot, r)
		}
		m.Cycles++
		return nil
	case "b":
		m.Cycles += 2
		return m.Jump(&in.Ops[0])
	case "be", "bne", "bl", "bnl":
		take := false
		switch mn {
		case "be":
			take = m.ZF
		case "bne":
			take = !m.ZF
		case "bl":
			take = m.LF
		case "bnl":
			take = !m.LF
		}
		if take {
			m.Cycles += 2
			return m.Jump(&in.Ops[0])
		}
		m.Cycles += 2
		return nil
	case "bct": // branch on count: decrement, branch while nonzero
		if in.Ops[0].Kind != sim.KReg {
			return unsupported370(mn, in)
		}
		r := in.Ops[0].Slot
		v := m.Mask(m.Get(r) - 1)
		m.Set(r, v)
		m.Cycles += 2
		if v != 0 {
			return m.Jump(&in.Ops[1])
		}
		return nil
	case "mvi": // move immediate byte to storage
		m.StoreByte(m.EA(&in.Ops[0]), byte(in.Ops[1].Imm))
		m.Cycles += 2
		return nil
	case "mvc":
		// mvc lencode, dst, src — moves lencode+1 bytes, strictly left to
		// right (byte by byte), which overlapping-operand idioms rely on.
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
	case "tr":
		// tr lencode, field, table — translate lencode+1 bytes in place
		// through the 256-byte table.
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
	case "clc":
		// clc lencode, a, b — compares lencode+1 bytes; Z set when equal.
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
	return fmt.Errorf("ibm370: unknown instruction %q", mn)
}

// unsupported370 refuses a two-operand instruction with an operand that
// is not a register where the instruction takes one.
func unsupported370(mn string, in *sim.Inst) error {
	return fmt.Errorf("ibm370: unsupported %s forms %s, %s", mn, &in.Ops[0], &in.Ops[1])
}
