package ibm370

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
		sim.Ins("la", sim.R("r1"), sim.I(10)),
		sim.Ins("lr", sim.R("r2"), sim.R("r1")),
		sim.Ins("ar", sim.R("r2"), sim.R("r1")),
		sim.Ins("sr", sim.R("r2"), sim.I(5)),
		sim.Ins("la", sim.R("r3"), sim.MD("r2", 100)), // address arithmetic
		sim.Ins("out", sim.R("r2")),
		sim.Ins("out", sim.R("r3")),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if m.Out[0] != 15 || m.Out[1] != 115 {
		t.Errorf("out = %v", m.Out)
	}
}

func TestBctLoop(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("la", sim.R("r4"), sim.I(6)),
		sim.Ins("la", sim.R("r5"), sim.I(0)),
		sim.Lbl("top"),
		sim.Ins("ar", sim.R("r5"), sim.I(1)),
		sim.Ins("bct", sim.R("r4"), sim.L("top")),
		sim.Ins("out", sim.R("r5")),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if m.Out[0] != 6 {
		t.Errorf("bct loop ran %d times, want 6", m.Out[0])
	}
}

// TestMvcAgainstDescription cross-validates the simulator's mvc (length
// code moves len+1 bytes, strictly left to right) with the corpus
// description, including overlapping operands.
func TestMvcAgainstDescription(t *testing.T) {
	desc := machines.Get("mvc")
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 100; round++ {
		lencode := uint64(rng.Intn(12))
		dst := uint64(100 + rng.Intn(10))
		src := uint64(100 + rng.Intn(10)) // frequently overlapping
		content := make([]byte, 40)
		rng.Read(content)
		m := newM(t, []sim.Instr{
			sim.Ins("la", sim.R("r2"), sim.I(dst)),
			sim.Ins("la", sim.R("r3"), sim.I(src)),
			sim.Ins("mvc", sim.I(lencode), sim.M("r2"), sim.M("r3")),
			sim.Ins("hlt"),
		})
		for i, b := range content {
			m.StoreByte(uint64(95+i), b)
		}
		runM(t, m)
		st := interp.NewState()
		for i, b := range content {
			st.Store(uint64(95+i), b)
		}
		if _, err := interp.Run(context.Background(), desc, []uint64{dst, src, lencode}, st, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			a := uint64(95 + i)
			if m.LoadByte(a) != st.Load(a) {
				t.Fatalf("round %d (len=%d dst=%d src=%d): byte %d differs",
					round, lencode, dst, src, a)
			}
		}
	}
}

// TestOverlappingMvcFillIdiom checks the classic mvi+mvc zero-propagation.
func TestOverlappingMvcFillIdiom(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("la", sim.R("r2"), sim.I(100)),
		sim.Ins("mvi", sim.M("r2"), sim.I(0)),
		sim.Ins("la", sim.R("r3"), sim.MD("r2", 1)),
		sim.Ins("mvc", sim.I(8), sim.M("r3"), sim.M("r2")), // 9 bytes, overlap by 1
		sim.Ins("hlt"),
	})
	for i := 0; i < 10; i++ {
		m.StoreByte(uint64(100+i), 0xAA)
	}
	runM(t, m)
	for i := 0; i < 10; i++ {
		if m.LoadByte(uint64(100+i)) != 0 {
			t.Fatalf("byte %d not zeroed: the fill idiom needs strict left-to-right mvc", i)
		}
	}
}

func TestClc(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("la", sim.R("r2"), sim.I(100)),
		sim.Ins("la", sim.R("r3"), sim.I(200)),
		sim.Ins("clc", sim.I(2), sim.M("r2"), sim.M("r3")), // 3 bytes
		sim.Ins("be", sim.L("eq")),
		sim.Ins("out", sim.I(0)),
		sim.Ins("hlt"),
		sim.Lbl("eq"),
		sim.Ins("out", sim.I(1)),
		sim.Ins("hlt"),
	})
	m.StoreBytes(100, []byte("abc"))
	m.StoreBytes(200, []byte("abc"))
	runM(t, m)
	if m.Out[0] != 1 {
		t.Errorf("equal strings compared unequal")
	}
	m2 := newM(t, []sim.Instr{
		sim.Ins("la", sim.R("r2"), sim.I(100)),
		sim.Ins("la", sim.R("r3"), sim.I(200)),
		sim.Ins("clc", sim.I(2), sim.M("r2"), sim.M("r3")),
		sim.Ins("be", sim.L("eq")),
		sim.Ins("out", sim.I(0)),
		sim.Ins("hlt"),
		sim.Lbl("eq"),
		sim.Ins("out", sim.I(1)),
		sim.Ins("hlt"),
	})
	m2.StoreBytes(100, []byte("abc"))
	m2.StoreBytes(200, []byte("abd"))
	runM(t, m2)
	if m2.Out[0] != 0 {
		t.Errorf("unequal strings compared equal")
	}
	if !m2.LF {
		t.Error("clc did not set the less flag for c < d")
	}
}

// TestMvcLengthCodeBoundaries pins the SS-format length-minus-one coding at
// its edges: length code 0 moves exactly one byte (mvc can never move
// zero), code 255 moves 256, and bits above the 8-bit field are masked off
// before both the move and the cycle charge — the coding constraint the
// mvc/sassign proof encodes (compiler loads Len-1).
func TestMvcLengthCodeBoundaries(t *testing.T) {
	cases := []struct {
		lencode uint64
		moved   uint64
	}{
		{0, 1},
		{1, 2},
		{255, 256},
		{0x100, 1}, // masked to length code 0
	}
	for _, c := range cases {
		m := newM(t, []sim.Instr{
			sim.Ins("la", sim.R("r2"), sim.I(2048)),
			sim.Ins("la", sim.R("r3"), sim.I(1024)),
			sim.Ins("mvc", sim.I(c.lencode), sim.M("r2"), sim.M("r3")),
			sim.Ins("hlt"),
		})
		for i := uint64(0); i < 257; i++ {
			m.StoreByte(1024+i, byte(i+1))
		}
		runM(t, m)
		for i := uint64(0); i < c.moved; i++ {
			if m.LoadByte(2048+i) != byte(i+1) {
				t.Fatalf("lencode %#x: byte %d not moved", c.lencode, i)
			}
		}
		if m.LoadByte(2048+c.moved) != 0 {
			t.Errorf("lencode %#x: moved past %d bytes", c.lencode, c.moved)
		}
		// 2 la (1 each) + mvc (5 + n) + hlt (1).
		if want := 2 + 5 + c.moved + 1; m.Cycles != want {
			t.Errorf("lencode %#x: %d cycles, want %d", c.lencode, m.Cycles, want)
		}
	}
}

func TestIcStc(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("la", sim.R("r2"), sim.I(100)),
		sim.Ins("la", sim.R("r5"), sim.I(0x7F)),
		sim.Ins("stc", sim.R("r5"), sim.M("r2")),
		sim.Ins("ic", sim.R("r6"), sim.MD("r2", 0)),
		sim.Ins("out", sim.R("r6")),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if m.Out[0] != 0x7F {
		t.Errorf("ic/stc roundtrip = %d", m.Out[0])
	}
}

func TestWordLoadStore(t *testing.T) {
	m := newM(t, []sim.Instr{
		sim.Ins("la", sim.R("r1"), sim.I(400)),
		sim.Ins("la", sim.R("r2"), sim.I(123456)),
		sim.Ins("st", sim.R("r2"), sim.M("r1")),
		sim.Ins("l", sim.R("r3"), sim.M("r1")),
		sim.Ins("out", sim.R("r3")),
		sim.Ins("hlt"),
	})
	runM(t, m)
	if m.Out[0] != 123456 {
		t.Errorf("st/l roundtrip = %d", m.Out[0])
	}
}

// TestLaRejectsLabel pins that la fails, charging nothing, on a source
// that is neither an immediate, a memory nor a register operand, rather
// than leaving its register unchanged and charging a cycle.
func TestLaRejectsLabel(t *testing.T) {
	m := newM(t, []sim.Instr{sim.Ins("la", sim.R("r2"), sim.L("x")), sim.Ins("hlt")})
	want := "sim: at 0 (la r2, x): ibm370: unsupported la source x"
	if err := m.Run(0); err == nil || err.Error() != want {
		t.Errorf("err = %v, want %s", err, want)
	}
	if m.Cycles != 0 {
		t.Errorf("la on a label charged %d cycles", m.Cycles)
	}
}

// TestRegisterPositionsRefuseOtherForms pins that an operand that is not a
// register, where an instruction reads or writes a register, fails the
// instruction, charging nothing and storing nothing, instead of acting as
// the "" register slot every such operand shares.
func TestRegisterPositionsRefuseOtherForms(t *testing.T) {
	for _, c := range []struct {
		in   sim.Instr
		want string
	}{
		{sim.Ins("la", sim.I(3), sim.I(100)), "ibm370: unsupported la forms #3, #100"},
		{sim.Ins("la", sim.M("r2"), sim.R("r2")), "ibm370: unsupported la forms [r2], r2"},
		{sim.Ins("la", sim.L("x"), sim.L("x")), "ibm370: unsupported la forms x, x"},
		{sim.Ins("lr", sim.I(3), sim.I(9)), "ibm370: unsupported lr forms #3, #9"},
		{sim.Ins("lr", sim.R("r2"), sim.I(9)), "ibm370: unsupported lr forms r2, #9"},
		{sim.Ins("st", sim.I(1), sim.R("r2")), "ibm370: unsupported st forms #1, r2"},
		{sim.Ins("stc", sim.I(1), sim.M("r2")), "ibm370: unsupported stc forms #1, [r2]"},
		{sim.Ins("l", sim.M("r2"), sim.M("r3")), "ibm370: unsupported l forms [r2], [r3]"},
		{sim.Ins("ic", sim.L("x"), sim.M("r2")), "ibm370: unsupported ic forms x, [r2]"},
		{sim.Ins("ar", sim.I(5), sim.R("r2")), "ibm370: unsupported ar forms #5, r2"},
		{sim.Ins("sr", sim.M("r2"), sim.I(1)), "ibm370: unsupported sr forms [r2], #1"},
		{sim.Ins("cr", sim.I(0), sim.I(0)), "ibm370: unsupported cr forms #0, #0"},
		{sim.Ins("nr", sim.L("x"), sim.I(1)), "ibm370: unsupported nr forms x, #1"},
		{sim.Ins("bct", sim.I(3), sim.L("x")), "ibm370: unsupported bct forms #3, x"},
	} {
		m := newM(t, []sim.Instr{sim.Lbl("x"), sim.Ins("la", sim.R("r2"), sim.I(100)), c.in, sim.Ins("hlt")})
		want := "sim: at 2 (" + c.in.String() + "): " + c.want
		if err := m.Run(0); err == nil || err.Error() != want {
			t.Errorf("err = %v, want %s", err, want)
		}
		if m.Cycles != 1 || m.Reg("") != 0 || m.LoadByte(100) != 0 || m.LoadByte(1) != 0 {
			t.Errorf("%s ran: %d cycles, \"\" slot %d", c.in, m.Cycles-1, m.Reg(""))
		}
	}
}
