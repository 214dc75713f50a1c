package sim

import (
	"strings"
	"testing"
)

// toyISA implements two instructions for exercising the shared machinery.
func toyISA() *ISA {
	return &ISA{Name: "toy", Bits: 16, Exec: func(m *Machine, in *Inst) error {
		switch in.Mn {
		case "nop":
			return nil
		case "set":
			v, err := m.Val(&in.Ops[1])
			if err != nil {
				return err
			}
			m.Set(in.Ops[0].Slot, v)
			m.Cycles++
			return nil
		case "jmp":
			return m.Jump(&in.Ops[0])
		case "hlt":
			m.Halted = true
			return nil
		}
		return nil
	}}
}

func TestMachineRunAndLabels(t *testing.T) {
	prog := []Instr{
		Ins("set", R("a"), I(5)),
		Ins("jmp", L("skip")),
		Ins("set", R("a"), I(9)),
		Lbl("skip"),
		Ins("set", R("b"), R("a")),
		Ins("hlt"),
	}
	m, err := NewMachine(toyISA(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.Reg("a") != 5 || m.Reg("b") != 5 {
		t.Errorf("regs a = %d, b = %d", m.Reg("a"), m.Reg("b"))
	}
	if m.Cycles != 2 {
		t.Errorf("cycles = %d, want 2 (label nop is free)", m.Cycles)
	}
}

func TestDuplicateLabelRejected(t *testing.T) {
	_, err := NewMachine(toyISA(), []Instr{Lbl("x"), Lbl("x")})
	if err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestUndefinedLabel(t *testing.T) {
	m, _ := NewMachine(toyISA(), []Instr{Ins("jmp", L("nowhere"))})
	if err := m.Run(0); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("err = %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	prog := []Instr{Lbl("top"), Ins("jmp", L("top"))}
	m, _ := NewMachine(toyISA(), prog)
	if err := m.Run(100); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v", err)
	}
}

func TestMaskAndWords(t *testing.T) {
	m, _ := NewMachine(toyISA(), []Instr{Ins("set", R("a"), I(0x12345))})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.Reg("a") != 0x2345 {
		t.Errorf("16-bit mask: %x", m.Reg("a"))
	}
	m.StoreWord(100, 0xBEEF)
	if m.LoadByte(100) != 0xEF || m.LoadByte(101) != 0xBE {
		t.Error("little-endian store wrong")
	}
	if m.LoadWord(100) != 0xBEEF {
		t.Errorf("LoadWord = %x", m.LoadWord(100))
	}
	m.StoreByte(uint64(MemSize)+5, 7)
	if m.LoadByte(5) != 7 {
		t.Error("memory addressing does not wrap")
	}
}

func TestOperandStringsAndListing(t *testing.T) {
	prog := []Instr{
		Lbl("start"),
		Ins("set", R("a"), I(3)),
		Ins("set", R("b"), MD("a", 2)),
	}
	text := Listing(prog)
	for _, want := range []string{"start:", "set a, #3", "2[a]"} {
		if !strings.Contains(text, want) {
			t.Errorf("listing lacks %q:\n%s", want, text)
		}
	}
	if M("x").String() != "[x]" || L("lab").String() != "lab" {
		t.Error("operand rendering wrong")
	}
}

func TestValRejectsLabels(t *testing.T) {
	m, _ := NewMachine(toyISA(), nil)
	if _, err := m.Val(&Op{Operand: L("x")}); err == nil {
		t.Error("label evaluated as a value")
	}
}
