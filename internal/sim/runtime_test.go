package sim_test

import (
	"testing"

	"extra/internal/sim"
	"extra/internal/sim/i8086"
	"extra/internal/sim/ibm370"
	"extra/internal/sim/vax"
)

// isaCase names each target's unconditional and zero-flag branches.
var isaCases = []struct {
	isa       *sim.ISA
	jmp, jz   string
	unknownAt string // the unknown-mnemonic error prefix
}{
	{i8086.ISA(), "jmp", "jz", "i8086"},
	{vax.ISA(), "brb", "beql", "vax"},
	{ibm370.ISA(), "b", "be", "ibm370"},
}

func run(t *testing.T, isa *sim.ISA, prog []sim.Instr) error {
	t.Helper()
	m, err := sim.NewMachine(isa, prog)
	if err != nil {
		t.Fatalf("%s: %v", isa.Name, err)
	}
	return m.Run(0)
}

// TestErrorsStayAtRunTime pins that decoding a program refuses only a
// duplicate label: an undefined label and an unknown mnemonic fail when
// executed, with the same text as ever, and not at all when never reached.
func TestErrorsStayAtRunTime(t *testing.T) {
	for _, c := range isaCases {
		// The zero flag is clear on a fresh machine, so the branch is
		// never taken.
		untaken := []sim.Instr{sim.Ins(c.jz, sim.L("nowhere")), sim.Ins("hlt"), sim.Ins("foo")}
		if err := run(t, c.isa, untaken); err != nil {
			t.Errorf("%s: unreached undefined label or unknown mnemonic failed the run: %v", c.isa.Name, err)
		}
		reached := []sim.Instr{sim.Ins(c.jz, sim.L("nowhere")), sim.Ins(c.jmp, sim.L("nowhere"))}
		want := "sim: at 1 (" + c.jmp + ` nowhere): sim: undefined label "nowhere"`
		if err := run(t, c.isa, reached); err == nil || err.Error() != want {
			t.Errorf("%s: jump to an undefined label: err = %v, want %s", c.isa.Name, err, want)
		}
		want = `sim: at 1 (foo): ` + c.unknownAt + `: unknown instruction "foo"`
		if err := run(t, c.isa, []sim.Instr{sim.Lbl("top"), sim.Ins("foo")}); err == nil || err.Error() != want {
			t.Errorf("%s: unknown mnemonic: err = %v, want %s", c.isa.Name, err, want)
		}
		_, err := sim.NewMachine(c.isa, []sim.Instr{sim.Lbl("x"), sim.Ins("hlt"), sim.Lbl("x")})
		if want := `sim: duplicate label "x"`; err == nil || err.Error() != want {
			t.Errorf("%s: duplicate label: err = %v, want %s", c.isa.Name, err, want)
		}
	}
}

// TestOperandErrorTexts pins that a failing instruction's operands read
// in its error text exactly as in a listing.
func TestOperandErrorTexts(t *testing.T) {
	for _, c := range []struct {
		isa  *sim.ISA
		in   sim.Instr
		want string
	}{
		{i8086.ISA(), sim.Ins("mov", sim.I(1), sim.MD("si", -2)),
			"sim: at 0 (mov #1, -2[si]): i8086: unsupported mov forms #1, -2[si]"},
		{vax.ISA(), sim.Ins("movb", sim.R("r1"), sim.R("r2")),
			"sim: at 0 (movb r1, r2): vax: unsupported movb forms r1, r2"},
		{ibm370.ISA(), sim.Ins("out", sim.L("x")),
			"sim: at 0 (out x): sim: operand x is not a value"},
	} {
		if err := run(t, c.isa, []sim.Instr{c.in}); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %s", c.isa.Name, err, c.want)
		}
	}
}

// TestWordsAcrossBoundaries stores a word across each power-of-two
// boundary up to 32 KiB and at 0xFFFF, whose high bytes wrap to address 0,
// and reads it back whole and byte by byte.
func TestWordsAcrossBoundaries(t *testing.T) {
	for _, c := range isaCases {
		n := uint64(c.isa.Bits / 8)
		for _, addr := range []uint64{0x00FF, 0x01FE, 0x03FF, 0x07FD, 0x0FFF, 0x3FFE, 0x7FFF, 0xFFFF} {
			m, err := sim.NewMachine(c.isa, nil)
			if err != nil {
				t.Fatal(err)
			}
			v := uint64(0x8899AABBCCDDEEFF) & (1<<(8*n) - 1)
			m.StoreWord(addr, v)
			if got := m.LoadWord(addr); got != v {
				t.Errorf("%s: word at %#x reads %#x, stored %#x", c.isa.Name, addr, got, v)
			}
			for i := uint64(0); i < n; i++ {
				if got, want := m.LoadByte((addr+i)%sim.MemSize), byte(v>>(8*i)); got != want {
					t.Errorf("%s: word at %#x: byte %d reads %#x, want %#x", c.isa.Name, addr, i, got, want)
				}
			}
			if got := m.LoadByte(addr - 1); got != 0 {
				t.Errorf("%s: word at %#x wrote the byte before it", c.isa.Name, addr)
			}
			if got := m.LoadByte(addr + n); got != 0 && addr+n < sim.MemSize {
				t.Errorf("%s: word at %#x wrote the byte after it", c.isa.Name, addr)
			}
		}
	}
}
