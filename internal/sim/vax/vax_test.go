package vax

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
		sim.Ins("movl", sim.R("r1"), sim.I(100000)),
		sim.Ins("addl", sim.R("r1"), sim.I(1)),
		sim.Ins("movl", sim.R("r2"), sim.R("r1")),
		sim.Ins("subl", sim.R("r2"), sim.I(2)),
		sim.Ins("out", sim.R("r1")),
		sim.Ins("out", sim.R("r2")),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if m.Out[0] != 100001 || m.Out[1] != 99999 {
		t.Errorf("out = %v", m.Out)
	}
}

func TestSobgtr(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("movl", sim.R("r0"), sim.I(4)),
		sim.Ins("movl", sim.R("r1"), sim.I(0)),
		sim.Lbl("top"),
		sim.Ins("addl", sim.R("r1"), sim.I(3)),
		sim.Ins("sobgtr", sim.R("r0"), sim.L("top")),
		sim.Ins("out", sim.R("r1")),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if m.Out[0] != 12 {
		t.Errorf("4 iterations of +3 = %d", m.Out[0])
	}
}

// TestSobgtrBoundary pins the signed branch condition at the values where
// "decrement and branch if greater than zero" differs from "branch if
// nonzero": entering with 0 decrements to -1 (top bit set) and must fall
// through, as must 0x80000001 -> 0x80000000. The synth differential
// harness surfaced the unsigned version looping for another 2^32
// iterations from an entry value of 0.
func TestSobgtrBoundary(t *testing.T) {
	cases := []struct {
		entry uint64
		loops uint64 // times the body runs
	}{
		{2, 2},
		{1, 1},
		{0, 1},          // decrements to -1: fall through after one body run
		{0x80000001, 1}, // decrements to INT32_MIN: not > 0
	}
	for _, c := range cases {
		m := newM(t, []sim.Instr{
			sim.Ins("movl", sim.R("r0"), sim.I(c.entry)),
			sim.Ins("movl", sim.R("r1"), sim.I(0)),
			sim.Lbl("top"),
			sim.Ins("incl", sim.R("r1")),
			sim.Ins("sobgtr", sim.R("r0"), sim.L("top")),
			sim.Ins("out", sim.R("r1")),
			sim.Ins("hlt"),
		})
		runM(t, m)
		if m.Out[0] != c.loops {
			t.Errorf("entry %#x: body ran %d times, want %d", c.entry, m.Out[0], c.loops)
		}
	}
}

// TestMovc3OverlapAgainstDescription cross-validates the simulator's movc3
// (including its overlap protection) with the corpus description.
func TestMovc3OverlapAgainstDescription(t *testing.T) {
	desc := machines.Get("movc3")
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 100; round++ {
		n := rng.Intn(10)
		src := uint64(100 + rng.Intn(12))
		dst := uint64(100 + rng.Intn(12)) // frequently overlapping
		content := make([]byte, 32)
		rng.Read(content)
		m := newM(t, []sim.Instr{
			sim.Ins("movc3", sim.I(uint64(n)), sim.I(src), sim.I(dst)),
			sim.Ins("hlt"),
		})
		for i, b := range content {
			m.StoreByte(uint64(96+i), b)
		}
		runM(t, m)
		st := interp.NewState()
		for i, b := range content {
			st.Store(uint64(96+i), b)
		}
		res, err := interp.Run(context.Background(), desc, []uint64{uint64(n), src, dst}, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			a := uint64(96 + i)
			if m.LoadByte(a) != st.Load(a) {
				t.Fatalf("round %d (n=%d src=%d dst=%d): byte %d differs", round, n, src, dst, a)
			}
		}
		// The result registers must track the description's final pointers
		// too — comparing memory alone is exactly how the backward-case
		// register divergence survived until the synth sweep.
		if m.Reg("r0") != 0 || m.Reg("r1") != res.Outputs[0] || m.Reg("r3") != res.Outputs[1] {
			t.Fatalf("round %d (n=%d src=%d dst=%d): sim (r0=%d r1=%d r3=%d) vs description (src=%d dst=%d)",
				round, n, src, dst, m.Reg("r0"), m.Reg("r1"), m.Reg("r3"), res.Outputs[0], res.Outputs[1])
		}
	}
}

// TestLoccAgainstDescription cross-validates locc's r0/r1 results.
func TestLoccAgainstDescription(t *testing.T) {
	desc := machines.Get("locc")
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 100; round++ {
		n := rng.Intn(12)
		base := uint64(200)
		ch := byte('a' + rng.Intn(4))
		content := make([]byte, n)
		for i := range content {
			content[i] = byte('a' + rng.Intn(3))
		}
		m := newM(t, []sim.Instr{
			sim.Ins("locc", sim.I(uint64(ch)), sim.I(uint64(n)), sim.I(base)),
			sim.Ins("hlt"),
		})
		for i, b := range content {
			m.StoreByte(base+uint64(i), b)
		}
		runM(t, m)
		st := interp.NewState()
		st.SetString(base, string(content))
		res, err := interp.Run(context.Background(), desc, []uint64{uint64(ch), uint64(n), base}, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Reg("r0") != res.Outputs[0] || m.Reg("r1") != res.Outputs[1] {
			t.Fatalf("round %d: sim (r0=%d r1=%d) vs description (r0=%d r1=%d)",
				round, m.Reg("r0"), m.Reg("r1"), res.Outputs[0], res.Outputs[1])
		}
	}
}

// TestCmpc3AgainstDescription cross-validates cmpc3.
func TestCmpc3AgainstDescription(t *testing.T) {
	desc := machines.Get("cmpc3")
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 100; round++ {
		n := rng.Intn(10)
		a, b := uint64(100), uint64(300)
		s1 := make([]byte, n)
		for i := range s1 {
			s1[i] = byte('a' + rng.Intn(2))
		}
		s2 := append([]byte(nil), s1...)
		if n > 0 && rng.Intn(2) == 0 {
			s2[rng.Intn(n)] ^= 1
		}
		m := newM(t, []sim.Instr{
			sim.Ins("cmpc3", sim.I(uint64(n)), sim.I(a), sim.I(b)),
			sim.Ins("hlt"),
		})
		for i := range s1 {
			m.StoreByte(a+uint64(i), s1[i])
			m.StoreByte(b+uint64(i), s2[i])
		}
		runM(t, m)
		st := interp.NewState()
		st.SetString(a, string(s1))
		st.SetString(b, string(s2))
		res, err := interp.Run(context.Background(), desc, []uint64{uint64(n), a, b}, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Reg("r0") != res.Outputs[0] || m.Reg("r1") != res.Outputs[1] || m.Reg("r3") != res.Outputs[2] {
			t.Fatalf("round %d: sim (%d,%d,%d) vs description %v",
				round, m.Reg("r0"), m.Reg("r1"), m.Reg("r3"), res.Outputs)
		}
	}
}

// TestMovc5AgainstDescription cross-validates movc5's move-then-fill.
func TestMovc5AgainstDescription(t *testing.T) {
	desc := machines.Get("movc5")
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 100; round++ {
		srclen := rng.Intn(8)
		dstlen := rng.Intn(8)
		fill := byte(rng.Intn(256))
		src, dst := uint64(100), uint64(300)
		content := make([]byte, srclen)
		rng.Read(content)
		m := newM(t, []sim.Instr{
			sim.Ins("movc5", sim.I(uint64(srclen)), sim.I(src), sim.I(uint64(fill)),
				sim.I(uint64(dstlen)), sim.I(dst)),
			sim.Ins("hlt"),
		})
		for i, b := range content {
			m.StoreByte(src+uint64(i), b)
		}
		runM(t, m)
		st := interp.NewState()
		st.SetString(src, string(content))
		res, err := interp.Run(context.Background(), desc,
			[]uint64{uint64(srclen), src, uint64(fill), uint64(dstlen), dst}, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < dstlen; i++ {
			if m.LoadByte(dst+uint64(i)) != st.Load(dst+uint64(i)) {
				t.Fatalf("round %d: dst byte %d differs", round, i)
			}
		}
		// Register results: the description's final source/destination
		// pointers, plus r0 = source bytes that did not fit. The simulator
		// used to leave all three untouched despite declaring them as
		// clobbers to the register-preference pass.
		moved := srclen
		if dstlen < srclen {
			moved = dstlen
		}
		if m.Reg("r0") != uint64(srclen-moved) || m.Reg("r1") != res.Outputs[0] || m.Reg("r3") != res.Outputs[1] {
			t.Fatalf("round %d (srclen=%d dstlen=%d): sim (r0=%d r1=%d r3=%d) vs description (src=%d dst=%d)",
				round, srclen, dstlen, m.Reg("r0"), m.Reg("r1"), m.Reg("r3"), res.Outputs[0], res.Outputs[1])
		}
	}
}

// TestStringOpCycleBoundaries pins the string instructions' cycle accounting
// at the operand-width edges: length 0 charges only the setup cost, and a
// length with bits above the hardware's 16-bit field is masked before both
// the move and the charge.
func TestStringOpCycleBoundaries(t *testing.T) {
	cycles := func(in sim.Instr) uint64 {
		t.Helper()
		m := newM(t, []sim.Instr{in, sim.Ins("hlt")})
		runM(t, m)
		return m.Cycles - 1 // hlt charges 1
	}
	cases := []struct {
		name string
		in   sim.Instr
		want uint64
	}{
		{"movc3 len 0", sim.Ins("movc3", sim.I(0), sim.I(100), sim.I(300)), 40},
		{"movc3 len 1", sim.Ins("movc3", sim.I(1), sim.I(100), sim.I(300)), 43},
		{"movc3 len masked to 1", sim.Ins("movc3", sim.I(0x10001), sim.I(100), sim.I(300)), 43},
		{"movc5 all zero", sim.Ins("movc5", sim.I(0), sim.I(100), sim.I(0), sim.I(0), sim.I(300)), 50},
		{"movc5 fill only", sim.Ins("movc5", sim.I(0), sim.I(100), sim.I(0), sim.I(4), sim.I(300)), 50 + 2*4},
		{"locc len 0", sim.Ins("locc", sim.I('x'), sim.I(0), sim.I(100)), 30},
		{"cmpc3 len 0", sim.Ins("cmpc3", sim.I(0), sim.I(100), sim.I(300)), 30},
	}
	for _, c := range cases {
		if got := cycles(c.in); got != c.want {
			t.Errorf("%s: %d cycles, want %d", c.name, got, c.want)
		}
	}
}

func TestBranchFamily(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("movl", sim.R("r1"), sim.I(3)),
		sim.Ins("cmpl", sim.R("r1"), sim.I(5)),
		sim.Ins("blss", sim.L("a")),
		sim.Ins("out", sim.I(0)),
		sim.Lbl("a"),
		sim.Ins("tstl", sim.R("r1")),
		sim.Ins("bneq", sim.L("b")),
		sim.Ins("out", sim.I(0)),
		sim.Lbl("b"),
		sim.Ins("out", sim.I(1)),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if len(m.Out) != 1 || m.Out[0] != 1 {
		t.Errorf("out = %v", m.Out)
	}
}

// TestStringOpsRejectLabelOperands pins that every character-string
// instruction fails on an operand that is not a value instead of reading
// it as 0 and running: no cycles are charged and no byte is written.
func TestStringOpsRejectLabelOperands(t *testing.T) {
	for _, c := range []struct {
		in   sim.Instr
		want string
	}{
		{sim.Ins("movc3", sim.I(4), sim.L("x"), sim.I(300)),
			"sim: at 0 (movc3 #4, x, #300): sim: operand x is not a value"},
		{sim.Ins("movc5", sim.I(4), sim.I(100), sim.I(7), sim.L("x"), sim.I(300)),
			"sim: at 0 (movc5 #4, #100, #7, x, #300): sim: operand x is not a value"},
		{sim.Ins("locc", sim.I('a'), sim.L("x"), sim.I(100)),
			"sim: at 0 (locc #97, x, #100): sim: operand x is not a value"},
		{sim.Ins("cmpc3", sim.I(4), sim.I(100), sim.L("x")),
			"sim: at 0 (cmpc3 #4, #100, x): sim: operand x is not a value"},
	} {
		m := newM(t, []sim.Instr{c.in, sim.Ins("hlt")})
		m.StoreBytes(100, []byte("abcd"))
		if err := m.Run(0); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %s", c.in.Mn, err, c.want)
		}
		if m.Cycles != 0 || m.LoadByte(300) != 0 || m.Reg("r0") != 0 {
			t.Errorf("%s: ran on a label operand: %d cycles, mem[300] = %#x, r0 = %d",
				c.in.Mn, m.Cycles, m.LoadByte(300), m.Reg("r0"))
		}
	}
}

// TestRegisterPositionsRefuseOtherForms pins that an operand that is not a
// register, where an instruction reads or writes a register, fails the
// instruction, charging nothing, instead of acting as the "" register
// slot every such operand shares.
func TestRegisterPositionsRefuseOtherForms(t *testing.T) {
	for _, c := range []struct {
		in   sim.Instr
		want string
	}{
		{sim.Ins("incl", sim.I(3)), "vax: unsupported incl forms #3"},
		{sim.Ins("decl", sim.M("r2")), "vax: unsupported decl forms [r2]"},
		{sim.Ins("tstl", sim.L("x")), "vax: unsupported tstl forms x"},
		{sim.Ins("addl", sim.I(5), sim.R("r2")), "vax: unsupported addl forms #5, r2"},
		{sim.Ins("subl", sim.M("r2"), sim.I(1)), "vax: unsupported subl forms [r2], #1"},
		{sim.Ins("cmpl", sim.I(0), sim.I(0)), "vax: unsupported cmpl forms #0, #0"},
		{sim.Ins("andl", sim.L("x"), sim.I(1)), "vax: unsupported andl forms x, #1"},
		{sim.Ins("sobgtr", sim.I(3), sim.L("x")), "vax: unsupported sobgtr forms #3, x"},
	} {
		m := newM(t, []sim.Instr{sim.Lbl("x"), c.in, sim.Ins("hlt")})
		want := "sim: at 1 (" + c.in.String() + "): " + c.want
		if err := m.Run(0); err == nil || err.Error() != want {
			t.Errorf("err = %v, want %s", err, want)
		}
		if m.Cycles != 0 || m.Reg("") != 0 {
			t.Errorf("%s ran: %d cycles, \"\" slot %d", c.in, m.Cycles, m.Reg(""))
		}
	}
}
