package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"extra/internal/sim"
	"extra/internal/sim/i8086"
	"extra/internal/sim/ibm370"
	"extra/internal/sim/vax"
)

// refCase is a target ISA, its reference executor, and every mnemonic the
// reference knows plus unknown ones, each with the number of operands it
// reads.
type refCase struct {
	isa       *sim.ISA
	exec      func(m *sim.Machine, mn string, in *sim.Inst) error
	mnemonics []arity
}

type arity struct {
	mn string
	n  int
}

var (
	ref8086 = refCase{i8086.ISA(), exec8086, []arity{
		{"nop", 0}, {"hlt", 0}, {"out", 1}, {"mov", 2}, {"movw", 2},
		{"add", 2}, {"sub", 2}, {"cmp", 2}, {"and", 2}, {"inc", 1}, {"dec", 1},
		{"xlat", 0}, {"cld", 0}, {"std", 0}, {"jmp", 1}, {"jz", 1}, {"jnz", 1},
		{"jb", 1}, {"jae", 1}, {"loop", 1}, {"rep_movsb", 0}, {"rep_stosb", 0},
		{"repne_scasb", 0}, {"repe_cmpsb", 0}, {"foo", 2}, {"movl", 2}, {"", 0},
	}}
	refVAX = refCase{vax.ISA(), execVAX, []arity{
		{"nop", 0}, {"hlt", 0}, {"out", 1}, {"movl", 2}, {"movb", 2},
		{"addl", 2}, {"subl", 2}, {"cmpl", 2}, {"andl", 2}, {"tstl", 1},
		{"incl", 1}, {"decl", 1}, {"brb", 1}, {"beql", 1}, {"bneq", 1},
		{"blss", 1}, {"bgeq", 1}, {"sobgtr", 2}, {"movc3", 3}, {"movc5", 5},
		{"locc", 3}, {"cmpc3", 3}, {"foo", 2}, {"mov", 2}, {"", 0},
	}}
	ref370 = refCase{ibm370.ISA(), exec370, []arity{
		{"nop", 0}, {"hlt", 0}, {"out", 1}, {"la", 2}, {"lr", 2}, {"l", 2},
		{"st", 2}, {"ic", 2}, {"stc", 2}, {"ar", 2}, {"sr", 2}, {"cr", 2},
		{"nr", 2}, {"b", 1}, {"be", 1}, {"bne", 1}, {"bl", 1}, {"bnl", 1},
		{"bct", 2}, {"mvi", 2}, {"mvc", 3}, {"tr", 3}, {"clc", 3},
		{"foo", 2}, {"movl", 2}, {"", 0},
	}}
)

// kinds are the operand kinds a test draws: every valid one and one past
// the end.
var kinds = []sim.OperandKind{sim.KNone, sim.KReg, sim.KImm, sim.KMem, sim.KLabel, sim.KLabel + 1}

// refISA decodes every instruction to the reference executor, closed
// over its mnemonic.
func (c refCase) refISA() *sim.ISA {
	return &sim.ISA{Name: c.isa.Name, Bits: c.isa.Bits, Regs: c.isa.Regs,
		Decode: func(mn string, _ []sim.Op) sim.Handler {
			return func(m *sim.Machine, in *sim.Inst) error { return c.exec(m, mn, in) }
		}}
}

// value draws a register, immediate or length value: small, near the
// 64 KiB wrap, or any 32- or 64-bit number.
func value(rng *rand.Rand) uint64 {
	switch rng.Intn(5) {
	case 0, 1:
		return uint64(rng.Intn(600))
	case 2:
		return sim.MemSize - 24 + uint64(rng.Intn(48))
	case 3:
		return uint64(rng.Uint32())
	}
	return rng.Uint64()
}

// operand draws an operand of kind k. Every field is drawn whatever the
// kind, so a handler reading a field its form leaves unset reads what
// the reference reads. Labels name the instruction itself, one two
// further on, or none.
func operand(rng *rand.Rand, k sim.OperandKind, regs []string) sim.Operand {
	o := sim.Operand{Kind: k, Reg: regs[rng.Intn(len(regs))], Imm: value(rng)}
	switch rng.Intn(4) {
	case 0:
		o.Disp = int64(rng.Intn(17)) - 8
	case 1:
		o.Disp = rng.Int63n(1<<21) - 1<<20
	}
	if k == sim.KLabel || rng.Intn(4) == 0 {
		o.Label = []string{"L", "M", "nowhere"}[rng.Intn(3)]
	}
	return o
}

// runStep runs one step of m and reports its error and whether it
// panicked.
func runStep(m *sim.Machine) (err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return m.Run(1), false
}

// checkOne runs the instruction mn with operands of the given kinds on
// the decoded handler and on the reference, from the same random
// registers, flags and memory, and describes the first difference in
// registers, flags, PC, cycles, output, memory, error text or panic.
func checkOne(c refCase, mn string, ks []sim.OperandKind, rng *rand.Rand) string {
	regs := append([]string{"", "r2", "ax"}, c.isa.Regs...)
	ops := make([]sim.Operand, len(ks))
	for i, k := range ks {
		ops[i] = operand(rng, k, regs)
	}
	// The instruction is labeled L and a label-only M follows a nop, so
	// a taken jump, a fall-through and a jump elsewhere leave three PCs.
	prog := []sim.Instr{{Label: "L", Mn: mn, Ops: ops}, sim.Ins("nop"), sim.Lbl("M")}
	got, err := sim.NewMachine(c.isa, prog)
	if err != nil {
		return err.Error()
	}
	want, err := sim.NewMachine(c.refISA(), prog)
	if err != nil {
		return err.Error()
	}
	// Slots: the ISA's Regs, then each operand's register in order.
	names := slices.Clone(c.isa.Regs)
	for _, o := range ops {
		if !slices.Contains(names, o.Reg) {
			names = append(names, o.Reg)
		}
	}
	for i := range names {
		v := value(rng)
		got.Set(i, v)
		want.Set(i, v)
	}
	zf, lf, df := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
	cycles := uint64(rng.Intn(1000))
	for _, m := range []*sim.Machine{got, want} {
		m.ZF, m.LF, m.DF, m.Cycles = zf, lf, df, cycles
	}
	// Memory: random bytes around every register's value and near the
	// wrap, so string instructions and byte operands read nonzero bytes.
	var blocks []uint64
	for _, n := range names {
		blocks = append(blocks, got.Reg(n)-8)
	}
	blocks = append(blocks, sim.MemSize-16, uint64(rng.Intn(sim.MemSize)))
	for _, at := range blocks {
		bs := make([]byte, 40+rng.Intn(300))
		for i := range bs {
			if rng.Intn(4) != 0 {
				bs[i] = byte(rng.Intn(256))
			}
		}
		got.StoreBytes(at, bs)
		want.StoreBytes(at, bs)
	}
	in := prog[0].String()
	gotErr, gotPanic := runStep(got)
	wantErr, wantPanic := runStep(want)
	switch {
	case gotPanic != wantPanic:
		return fmt.Sprintf("%s: panicked %v, reference %v", in, gotPanic, wantPanic)
	case fmt.Sprint(gotErr) != fmt.Sprint(wantErr):
		return fmt.Sprintf("%s: error %v, reference %v", in, gotErr, wantErr)
	case got.PC != want.PC || got.Halted != want.Halted:
		return fmt.Sprintf("%s: PC %d halted %v, reference %d %v", in, got.PC, got.Halted, want.PC, want.Halted)
	case got.ZF != want.ZF || got.LF != want.LF || got.DF != want.DF:
		return fmt.Sprintf("%s: flags ZF %v LF %v DF %v, reference %v %v %v",
			in, got.ZF, got.LF, got.DF, want.ZF, want.LF, want.DF)
	case got.Cycles != want.Cycles:
		return fmt.Sprintf("%s: %d cycles, reference %d", in, got.Cycles-cycles, want.Cycles-cycles)
	case !slices.Equal(got.Out, want.Out):
		return fmt.Sprintf("%s: out %v, reference %v", in, got.Out, want.Out)
	case !got.SameMemory(want):
		return fmt.Sprintf("%s: memory differs from the reference", in)
	}
	for _, n := range names {
		if got.Reg(n) != want.Reg(n) {
			return fmt.Sprintf("%s: register %q = %#x, reference %#x", in, n, got.Reg(n), want.Reg(n))
		}
	}
	return ""
}

// forEachForm calls f with every combination of operand kinds for up to
// one operand more than the mnemonic reads, fewer included; for five or
// more operands it samples 1,296 combinations per count.
func forEachForm(rng *rand.Rand, n int, f func([]sim.OperandKind)) {
	for count := 0; count <= n+1; count++ {
		total := 1
		for i := 0; i < count; i++ {
			total *= len(kinds)
		}
		for t := 0; t < min(total, 1296); t++ {
			ks := make([]sim.OperandKind, count)
			code := t
			if total > 1296 {
				code = rng.Intn(total)
			}
			for i := range ks {
				ks[i] = kinds[code%len(kinds)]
				code /= len(kinds)
			}
			f(ks)
		}
	}
}

// testHandlers holds every handler of c to its reference on every
// mnemonic and operand-kind combination, each from a fresh random state.
func testHandlers(t *testing.T, c refCase) {
	rng := rand.New(rand.NewSource(1))
	for _, a := range c.mnemonics {
		forEachForm(rng, a.n, func(ks []sim.OperandKind) {
			if msg := checkOne(c, a.mn, ks, rng); msg != "" {
				t.Errorf("%s: kinds %v: %s", c.isa.Name, ks, msg)
			}
		})
	}
}

// TestHandlersMatchReference holds each ISA's decoded handlers to the
// mnemonic-switch executor they replaced.
func TestHandlersMatchReference(t *testing.T) {
	for _, c := range []refCase{ref8086, refVAX, ref370} {
		t.Run(c.isa.Name, func(t *testing.T) { testHandlers(t, c) })
	}
}

// fuzzHandlers fuzzes one instruction of c: the mnemonic by index, up to
// seven operand kinds (any byte, so invalid kinds too) and the seed of its
// operands and starting state.
func fuzzHandlers(f *testing.F, c refCase) {
	for i := range c.mnemonics {
		f.Add(uint8(i), []byte{1, 2, 3, 1, 1}, int64(i))
	}
	f.Fuzz(func(t *testing.T, mn uint8, kb []byte, seed int64) {
		a := c.mnemonics[int(mn)%len(c.mnemonics)]
		ks := make([]sim.OperandKind, min(len(kb), a.n+2))
		for i := range ks {
			ks[i] = sim.OperandKind(kb[i] % 8)
		}
		if msg := checkOne(c, a.mn, ks, rand.New(rand.NewSource(seed))); msg != "" {
			t.Fatalf("kinds %v: %s", ks, msg)
		}
	})
}

func FuzzI8086MatchesReference(f *testing.F)  { fuzzHandlers(f, ref8086) }
func FuzzVAXMatchesReference(f *testing.F)    { fuzzHandlers(f, refVAX) }
func FuzzIBM370MatchesReference(f *testing.F) { fuzzHandlers(f, ref370) }
