package sim

import (
	"math/rand"
	"strings"
	"testing"
)

// toyISA implements set, jmp and hlt for exercising the shared machinery;
// any other mnemonic decodes to a no-op.
func toyISA() *ISA {
	return &ISA{Name: "toy", Bits: 16, Decode: func(mn string, _ []Op) Handler {
		switch mn {
		case "set":
			return toySet
		case "jmp":
			return toyJmp
		case "hlt":
			return toyHlt
		}
		return Nop
	}}
}

func toySet(m *Machine, in *Inst) error {
	v, err := m.Val(&in.Ops[1])
	if err != nil {
		return err
	}
	m.Set(in.Ops[0].Slot, v)
	m.Cycles++
	return nil
}

func toyJmp(m *Machine, in *Inst) error { return m.Jump(&in.Ops[0]) }

func toyHlt(m *Machine, _ *Inst) error {
	m.Halted = true
	return nil
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

// TestStoreBytesMatchesByteWise holds StoreBytes to the byte-by-byte
// StoreByte loop it replaced: the same bytes and the same pages mapped,
// for random segments with zero runs, segments straddling pages, segments
// wrapping past 64 KiB and one longer than memory, over memories that
// already hold some pages.
func TestStoreBytesMatchesByteWise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	segment := func(n int) []byte {
		bs := make([]byte, n)
		for i := 0; i < n; {
			run := 1 + rng.Intn(2*pageSize)
			fill := rng.Intn(3) != 0 // two runs in three are random bytes
			for ; run > 0 && i < n; run, i = run-1, i+1 {
				if fill {
					bs[i] = byte(rng.Intn(256))
				}
			}
		}
		return bs
	}
	for trial := 0; trial < 400; trial++ {
		got, _ := NewMachine(toyISA(), nil)
		want, _ := NewMachine(toyISA(), nil)
		for k := rng.Intn(4); k > 0; k-- {
			a, v := uint64(rng.Intn(MemSize)), byte(1+rng.Intn(255))
			got.StoreByte(a, v)
			want.StoreByte(a, v)
		}
		var addr uint64
		switch trial % 4 {
		case 0: // anywhere
			addr = uint64(rng.Intn(MemSize))
		case 1: // near a page boundary
			addr = uint64(rng.Intn(MemSize/pageSize))*pageSize - uint64(rng.Intn(8))
		case 2: // wrapping past 64 KiB
			addr = MemSize - 1 - uint64(rng.Intn(3*pageSize))
		case 3: // beyond 64 KiB: the address itself wraps
			addr = MemSize*uint64(1+rng.Intn(4)) + uint64(rng.Intn(MemSize))
		}
		n := rng.Intn(4 * pageSize)
		if trial == 0 {
			n = MemSize + 300 // longer than memory: later bytes overwrite
		}
		bs := segment(n)
		got.StoreBytes(addr, bs)
		for i, b := range bs {
			want.StoreByte(addr+uint64(i), b)
		}
		for i := range got.pages {
			if (got.pages[i] == nil) != (want.pages[i] == nil) {
				t.Fatalf("trial %d (addr %#x, %d bytes): page %d mapped %v, byte-wise %v",
					trial, addr, n, i, got.pages[i] != nil, want.pages[i] != nil)
			}
		}
		if !got.SameMemory(want) {
			t.Fatalf("trial %d (addr %#x, %d bytes): memory differs from byte-wise stores", trial, addr, n)
		}
	}
}
