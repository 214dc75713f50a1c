package i8086

import (
	"context"
	"math/rand"
	"testing"

	"extra/internal/interp"
	"extra/internal/machines"
	"extra/internal/sim"
)

func newM(t *testing.T, prog []sim.Instr) *sim.Machine {
	t.Helper()
	m, err := sim.NewMachine(ISA(), prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runM(t *testing.T, m *sim.Machine) {
	t.Helper()
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestBasicOps(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("mov", sim.R("ax"), sim.I(7)),
		sim.Ins("mov", sim.R("bx"), sim.R("ax")),
		sim.Ins("add", sim.R("ax"), sim.I(3)),
		sim.Ins("sub", sim.R("bx"), sim.I(2)),
		sim.Ins("inc", sim.R("cx")),
		sim.Ins("dec", sim.R("cx")),
		sim.Ins("out", sim.R("ax")),
		sim.Ins("out", sim.R("bx")),
		sim.Ins("out", sim.R("cx")),
		sim.Ins("hlt"),
	})
	runM(t, m)
	want := []uint64{10, 5, 0}
	for i, w := range want {
		if m.Out[i] != w {
			t.Errorf("out[%d] = %d, want %d", i, m.Out[i], w)
		}
	}
	if !m.ZF {
		t.Error("dec to zero did not set zf")
	}
}

func TestBranches(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("mov", sim.R("ax"), sim.I(1)),
		sim.Ins("cmp", sim.R("ax"), sim.I(2)),
		sim.Ins("jb", sim.L("less")),
		sim.Ins("out", sim.I(0)),
		sim.Ins("hlt"),
		sim.Lbl("less"),
		sim.Ins("out", sim.I(1)),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if len(m.Out) != 1 || m.Out[0] != 1 {
		t.Errorf("out = %v", m.Out)
	}
}

func TestLoopInstruction(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("mov", sim.R("cx"), sim.I(5)),
		sim.Ins("mov", sim.R("ax"), sim.I(0)),
		sim.Lbl("top"),
		sim.Ins("add", sim.R("ax"), sim.I(2)),
		sim.Ins("loop", sim.L("top")),
		sim.Ins("out", sim.R("ax")),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if m.Out[0] != 10 {
		t.Errorf("5 iterations of +2 = %d", m.Out[0])
	}
}

func TestMemoryForms(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("mov", sim.R("si"), sim.I(100)),
		sim.Ins("mov", sim.M("si"), sim.I(0x41)),
		sim.Ins("mov", sim.R("al"), sim.M("si")),
		sim.Ins("out", sim.R("al")),
		sim.Ins("movw", sim.M("si"), sim.R("si")),
		sim.Ins("movw", sim.R("dx"), sim.M("si")),
		sim.Ins("out", sim.R("dx")),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if m.Out[0] != 0x41 || m.Out[1] != 100 {
		t.Errorf("out = %v", m.Out)
	}
}

func TestDirectionFlag(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("std"),
		sim.Ins("mov", sim.R("di"), sim.I(50)),
		sim.Ins("mov", sim.R("cx"), sim.I(1)),
		sim.Ins("mov", sim.R("al"), sim.I(9)),
		sim.Ins("rep_stosb"),
		sim.Ins("cld"),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if m.Reg("di") != 49 {
		t.Errorf("std direction: di = %d, want 49", m.Reg("di"))
	}
	if m.LoadByte(50) != 9 {
		t.Error("store missed")
	}
	if m.DF {
		t.Error("cld did not clear df")
	}
}

// TestScasbAgainstDescription cross-validates the simulator's repne scasb
// with the EXTRA corpus description of scasb executed by the ISPS
// interpreter: the same architecture specified twice must agree.
func TestScasbAgainstDescription(t *testing.T) {
	desc := machines.Get("scasb")
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 100; round++ {
		n := rng.Intn(12)
		base := uint64(100 + rng.Intn(50))
		ch := byte('a' + rng.Intn(4))
		content := make([]byte, n)
		for i := range content {
			content[i] = byte('a' + rng.Intn(3))
		}
		// Simulator.
		m := newM(t, []sim.Instr{
			sim.Ins("mov", sim.R("di"), sim.I(base)),
			sim.Ins("mov", sim.R("cx"), sim.I(uint64(n))),
			sim.Ins("mov", sim.R("al"), sim.I(uint64(ch))),
			sim.Ins("cld"),
			sim.Ins("repne_scasb"),
			sim.Ins("hlt"),
		})
		for i, b := range content {
			m.StoreByte(base+uint64(i), b)
		}
		runM(t, m)
		// Description.
		st := interp.NewState()
		st.SetString(base, string(content))
		res, err := interp.Run(context.Background(), desc, []uint64{1, 0, 0, 0, base, uint64(n), uint64(ch)}, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		zf, di, cx := res.Outputs[0], res.Outputs[1], res.Outputs[2]
		simZF := uint64(0)
		if m.ZF {
			simZF = 1
		}
		if simZF != zf || m.Reg("di") != di || m.Reg("cx") != cx {
			t.Fatalf("round %d (%q, %q): sim (zf=%d di=%d cx=%d) vs description (zf=%d di=%d cx=%d)",
				round, content, ch, simZF, m.Reg("di"), m.Reg("cx"), zf, di, cx)
		}
	}
}

// TestMovsbAgainstDescription cross-validates rep movsb the same way.
func TestMovsbAgainstDescription(t *testing.T) {
	desc := machines.Get("movsb")
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 50; round++ {
		n := rng.Intn(10)
		src, dst := uint64(100), uint64(300)
		content := make([]byte, n)
		rng.Read(content)
		m := newM(t, []sim.Instr{
			sim.Ins("mov", sim.R("si"), sim.I(src)),
			sim.Ins("mov", sim.R("di"), sim.I(dst)),
			sim.Ins("mov", sim.R("cx"), sim.I(uint64(n))),
			sim.Ins("cld"),
			sim.Ins("rep_movsb"),
			sim.Ins("hlt"),
		})
		for i, b := range content {
			m.StoreByte(src+uint64(i), b)
		}
		runM(t, m)
		st := interp.NewState()
		st.SetString(src, string(content))
		if _, err := interp.Run(context.Background(), desc, []uint64{1, 0, src, dst, uint64(n)}, st, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if m.LoadByte(dst+uint64(i)) != st.Load(dst+uint64(i)) {
				t.Fatalf("round %d: byte %d differs", round, i)
			}
		}
	}
}

// TestAndClearsCarry pins the and/jb interaction the synth gadget tables
// surfaced: AND always clears the 8086 carry flag, so a jb after and must
// fall through even when a stale borrow is pending. The simulator used to
// compute LF = a < b for and like the subtractive forms, which made the
// decomposed index loop's `and dx, 0xff` leave a phantom borrow.
func TestAndClearsCarry(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("mov", sim.R("ax"), sim.I(5)),
		sim.Ins("cmp", sim.R("ax"), sim.I(9)), // borrow: 5 < 9 sets LF
		sim.Ins("and", sim.R("ax"), sim.I(0xff)),
		sim.Ins("jb", sim.L("carry")),
		sim.Ins("out", sim.I(0)),
		sim.Ins("hlt"),
		sim.Lbl("carry"),
		sim.Ins("out", sim.I(1)),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if len(m.Out) != 1 || m.Out[0] != 0 {
		t.Errorf("jb taken after and: out = %v", m.Out)
	}
	if m.ZF {
		t.Error("and of a nonzero result set zf")
	}
}

// TestRepCycleBoundaries pins the rep-prefixed instructions' cycle
// accounting at cx = 0: only the base cost is charged, no iterations run,
// and repne scasb leaves zf untouched (the pass-through the exotic index
// binding's prologue augment relies on).
func TestRepCycleBoundaries(t *testing.T) {
	for _, c := range []struct {
		mn   string
		base uint64
	}{
		{"rep_movsb", 9},
		{"rep_stosb", 9},
		{"repne_scasb", 9},
		{"repe_cmpsb", 9},
	} {
		m := newM(t, []sim.Instr{
			sim.Ins("mov", sim.R("cx"), sim.I(0)),
			sim.Ins("mov", sim.R("si"), sim.I(1)),
			sim.Ins("cmp", sim.R("si"), sim.I(1)), // zf = 1 before the string op
			sim.Ins(c.mn),
			sim.Ins("hlt"),
		})
		runM(t, m)
		// 2 mov-imm (4 each) + cmp-imm (4) + base + hlt (2).
		if want := uint64(2*4+4) + c.base + 2; m.Cycles != want {
			t.Errorf("%s with cx=0: %d cycles, want %d", c.mn, m.Cycles, want)
		}
		if !m.ZF {
			t.Errorf("%s with cx=0 clobbered zf", c.mn)
		}
	}
}

func TestCyclesChargedForStringOps(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("mov", sim.R("si"), sim.I(0)),
		sim.Ins("mov", sim.R("di"), sim.I(100)),
		sim.Ins("mov", sim.R("cx"), sim.I(10)),
		sim.Ins("rep_movsb"),
		sim.Ins("hlt"),
	})
	runM(t, m)
	// 3 mov-imm (4 each) + rep movsb (9 + 17*10) + hlt (2).
	want := uint64(3*4 + 9 + 170 + 2)
	if m.Cycles != want {
		t.Errorf("cycles = %d, want %d", m.Cycles, want)
	}
}

func TestUnknownInstruction(t *testing.T) {
	m := newM(t, []sim.Instr{sim.Ins("frobnicate")})
	if err := m.Run(0); err == nil {
		t.Error("unknown instruction accepted")
	}
}

// TestRegisterPositionsRefuseOtherForms pins that an operand that is not a
// register, where an instruction reads and writes a register, fails the
// instruction, charging nothing, instead of acting as the "" register
// slot every such operand shares: the program below used to print 8.
func TestRegisterPositionsRefuseOtherForms(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("mov", sim.R("cx"), sim.I(7)),
		sim.Ins("add", sim.I(5), sim.R("cx")),
		sim.Ins("inc", sim.L("x")),
		sim.Ins("out", sim.R("")),
	})
	want := "sim: at 1 (add #5, cx): i8086: unsupported add forms #5, cx"
	if err := m.Run(0); err == nil || err.Error() != want {
		t.Errorf("err = %v, want %s", err, want)
	}
	if len(m.Out) != 0 {
		t.Errorf("out = %v after the refused add", m.Out)
	}
	for _, c := range []struct {
		in   sim.Instr
		want string
	}{
		{sim.Ins("sub", sim.M("bx"), sim.I(1)), "i8086: unsupported sub forms [bx], #1"},
		{sim.Ins("cmp", sim.L("x"), sim.R("cx")), "i8086: unsupported cmp forms x, cx"},
		{sim.Ins("and", sim.I(3), sim.I(1)), "i8086: unsupported and forms #3, #1"},
		{sim.Ins("inc", sim.L("x")), "i8086: unsupported inc forms x"},
		{sim.Ins("dec", sim.I(2)), "i8086: unsupported dec forms #2"},
	} {
		m := newM(t, []sim.Instr{c.in, sim.Ins("hlt")})
		want := "sim: at 0 (" + c.in.String() + "): " + c.want
		if err := m.Run(0); err == nil || err.Error() != want {
			t.Errorf("err = %v, want %s", err, want)
		}
		if m.Cycles != 0 || m.Reg("") != 0 {
			t.Errorf("%s ran: %d cycles, \"\" slot %d", c.in, m.Cycles, m.Reg(""))
		}
	}
}
