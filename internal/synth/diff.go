package synth

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"extra/internal/codegen"
	"extra/internal/equiv"
	"extra/internal/fault"
	"extra/internal/hll"
	"extra/internal/interp"
	"extra/internal/isps"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/sim"
)

// Divergence is one observed disagreement between two layers that claim
// the same semantics. Inverse mode's premise is that the bindings, the
// simulators, and the generator all agree — so any divergence is a bug in
// one of them, and the sweep exists to find it before the variant verifier
// builds on top.
type Divergence struct {
	// Axis names the pair of layers that disagreed: "codegen" (generated
	// code vs IR reference semantics), "instruction" (simulator vs ISPS
	// description), or "binding" (catalog binding vs proof engine).
	Axis   string `json:"axis"`
	Target string `json:"target"`
	Case   string `json:"case"`
	Detail string `json:"detail"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("[%s] %s %s: %s", d.Axis, d.Target, d.Case, d.Detail)
}

// boundaryLens are the operand widths where length codings change shape:
// the empty operation, the single byte, the 8-bit length field's last
// value, the first value past it (where a 370 length code no longer fits
// and the generator must fall back), and one more for the off-by-one.
var boundaryLens = []int{0, 1, 2, 255, 256, 257}

// sweepMaxSteps bounds each compiled run; the largest decomposed loop
// (compare over 257 bytes) runs well under this.
const sweepMaxSteps = 400_000

// BoundarySweep cross-checks generated code against the IR reference
// semantics for every operator class, target, and boundary length, under
// both the full generator and the exotic-free fallback. It returns the
// divergences found (nil means the layers agree everywhere).
func BoundarySweep() ([]Divergence, error) {
	classes := []string{"index", "move", "compare", "clear", "xlate"}
	var divs []Divergence
	for _, class := range classes {
		for _, n := range boundaryLens {
			for _, src := range boundarySources(class, n) {
				ds, err := checkSource(src.name, src.src)
				if err != nil {
					return divs, err
				}
				divs = append(divs, ds...)
			}
		}
	}
	return divs, nil
}

type namedSource struct {
	name string
	src  string
}

// boundarySources builds the workload texts for one class and length: the
// canonical data block, plus the cases where the answer flips — the index
// sentinel absent, the compared blocks unequal.
func boundarySources(class string, n int) []namedSource {
	base, err := Workload(class, n, canonicalData(n))
	if err != nil {
		return nil
	}
	out := []namedSource{{fmt.Sprintf("%s/%d", class, n), base}}
	switch class {
	case "index":
		miss, _ := Workload(class, n, missData(n))
		out = append(out, namedSource{fmt.Sprintf("%s/%d/miss", class, n), miss})
	case "compare":
		if n > 0 {
			d1, d2 := canonicalData(n), canonicalData(n)
			d2[n-1] ^= 0x55
			src := fmt.Sprintf("data %d %s\ndata %d %s\nlet e = compare %d %d %d\nprint e\n",
				workBase, strconv.Quote(string(d1)), workOther, strconv.Quote(string(d2)),
				workBase, workOther, n)
			out = append(out, namedSource{fmt.Sprintf("%s/%d/differ", class, n), src})
		}
	}
	return out
}

// checkSource compiles one workload for every target under both option
// sets and diffs each run against the reference execution.
func checkSource(name, src string) (divs []Divergence, err error) {
	defer fault.RecoverInto(&err, "synth.sweep "+name)
	prog, err := hll.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("synth: parse %s: %w", name, err)
	}
	ref, err := prog.RefRun()
	if err != nil {
		return nil, fmt.Errorf("synth: reference %s: %w", name, err)
	}
	for _, target := range codegen.Targets() {
		t, err := codegen.For(target)
		if err != nil {
			return nil, err
		}
		for _, o := range []struct {
			tag  string
			opts codegen.Options
		}{
			{"exotic", codegen.AllOn()},
			{"loops", codegen.Options{Rewriting: true}},
		} {
			p, err := t.Compile(prog, o.opts)
			if err != nil {
				divs = append(divs, Divergence{Axis: "codegen", Target: target,
					Case: name + "/" + o.tag, Detail: "compile: " + err.Error()})
				continue
			}
			m, err := codegen.Run(t, p, sweepMaxSteps)
			if err != nil {
				divs = append(divs, Divergence{Axis: "codegen", Target: target,
					Case: name + "/" + o.tag, Detail: "run: " + err.Error()})
				continue
			}
			if d := diffAgainstRef(m, ref.Out, ref.Mem); d != "" {
				divs = append(divs, Divergence{Axis: "codegen", Target: target,
					Case: name + "/" + o.tag, Detail: d})
			}
			obs.Default().Inc("synth.sweep", target)
		}
	}
	return divs, nil
}

// diffAgainstRef compares a finished machine with the reference outcome:
// the out stream must match exactly and every reference-touched address
// must hold the reference's byte. Addresses the reference never touched
// are fair game — the generated code owns its frame and variable slots.
func diffAgainstRef(m *sim.Machine, refOut []uint64, refMem map[uint64]byte) string {
	if len(m.Out) != len(refOut) {
		return fmt.Sprintf("out stream length %d, reference %d", len(m.Out), len(refOut))
	}
	for i := range refOut {
		if m.Out[i] != refOut[i] {
			return fmt.Sprintf("out[%d] = %d, reference %d", i, m.Out[i], refOut[i])
		}
	}
	for addr, want := range refMem {
		if got := m.LoadByte(addr); got != want {
			return fmt.Sprintf("mem[%d] = %#x, reference %#x", addr, got, want)
		}
	}
	return ""
}

// InstructionSweep cross-checks each catalog instruction's simulator
// implementation against its ISPS corpus description on seeded random
// operand sets — the same architecture specified twice must agree on every
// result register, flag, and memory byte.
func InstructionSweep() ([]Divergence, error) {
	var divs []Divergence
	for i := range Catalog {
		b := &Catalog[i]
		ds, err := checkInstruction(b)
		if err != nil {
			return divs, fmt.Errorf("synth: instruction sweep %s: %w", b.Key, err)
		}
		divs = append(divs, ds...)
		obs.Default().Inc("synth.sweep", "instr."+b.Instruction)
	}
	return divs, nil
}

// instrLens are the per-round operand lengths: the boundary cases plus a
// couple of interior points. 370 length codes are length-minus-one, so 0
// is skipped for those (mvc cannot move zero bytes).
var instrLens = []int{0, 1, 2, 3, 8, 15}

func checkInstruction(b *Binding) (divs []Divergence, err error) {
	defer fault.RecoverInto(&err, "synth.instr "+b.Instruction)
	t, err := codegen.For(b.Target)
	if err != nil {
		return nil, err
	}
	desc := machines.Get(b.Instruction)
	if desc == nil {
		return nil, fmt.Errorf("no corpus description for %s", b.Instruction)
	}
	rng := rand.New(rand.NewSource(int64(fnvHash(b.Instruction))))
	for round, n := range instrLens {
		if b.Target == "ibm370" && n == 0 {
			continue // SS length codes are length-minus-one
		}
		content := make([]byte, 32)
		rng.Read(content)
		ch := content[rng.Intn(len(content))] // a byte that may or may not occur in range
		detail, err := diffInstruction(t, desc, b.Instruction, n, ch, content)
		if err != nil {
			return divs, err
		}
		if detail != "" {
			divs = append(divs, Divergence{Axis: "instruction", Target: b.Target,
				Case: fmt.Sprintf("%s/round%d/n%d", b.Instruction, round, n), Detail: detail})
		}
	}
	return divs, nil
}

// diffInstruction runs one operand set through the simulator and the
// description interpreter and diffs the per-instruction observables.
func diffInstruction(t codegen.Target, desc *descT, mn string, n int, ch byte, content []byte) (string, error) {
	const (
		a1 = 1024
		a2 = 2048
		tb = 4096
	)
	nn := uint64(n)
	st := interp.NewState()
	var prog []sim.Instr
	var inputs []uint64
	var check func(m *sim.Machine, out []uint64) string
	switch mn {
	case "scasb":
		prog = []sim.Instr{
			sim.Ins("mov", sim.R("di"), sim.I(a1)),
			sim.Ins("mov", sim.R("cx"), sim.I(nn)),
			sim.Ins("mov", sim.R("al"), sim.I(uint64(ch))),
			sim.Ins("cld"),
			sim.Ins("repne_scasb"),
			sim.Ins("hlt"),
		}
		inputs = []uint64{1, 0, 0, 0, a1, nn, uint64(ch)}
		check = func(m *sim.Machine, out []uint64) string {
			return diffRegs(m, map[string]uint64{"di": out[1], "cx": out[2]}, &out[0])
		}
	case "movsb":
		prog = []sim.Instr{
			sim.Ins("mov", sim.R("si"), sim.I(a1)),
			sim.Ins("mov", sim.R("di"), sim.I(a2)),
			sim.Ins("mov", sim.R("cx"), sim.I(nn)),
			sim.Ins("cld"),
			sim.Ins("rep_movsb"),
			sim.Ins("hlt"),
		}
		inputs = []uint64{1, 0, a1, a2, nn}
		check = func(m *sim.Machine, out []uint64) string {
			return diffRegs(m, map[string]uint64{"si": out[0], "di": out[1], "cx": out[2]}, nil)
		}
	case "stosb":
		prog = []sim.Instr{
			sim.Ins("mov", sim.R("di"), sim.I(a1)),
			sim.Ins("mov", sim.R("cx"), sim.I(nn)),
			sim.Ins("mov", sim.R("al"), sim.I(uint64(ch))),
			sim.Ins("cld"),
			sim.Ins("rep_stosb"),
			sim.Ins("hlt"),
		}
		inputs = []uint64{1, 0, uint64(ch), a1, nn}
		check = func(m *sim.Machine, out []uint64) string {
			return diffRegs(m, map[string]uint64{"di": out[0], "cx": out[1]}, nil)
		}
	case "cmpsb":
		prog = []sim.Instr{
			sim.Ins("mov", sim.R("si"), sim.I(a1)),
			sim.Ins("mov", sim.R("di"), sim.I(a2)),
			sim.Ins("mov", sim.R("cx"), sim.I(nn)),
			sim.Ins("cmp", sim.R("si"), sim.R("si")), // zf = 1: empty strings compare equal
			sim.Ins("cld"),
			sim.Ins("repe_cmpsb"),
			sim.Ins("hlt"),
		}
		inputs = []uint64{1, 1, 0, 1, a1, a2, nn}
		check = func(m *sim.Machine, out []uint64) string {
			return diffRegs(m, map[string]uint64{"si": out[1], "di": out[2], "cx": out[3]}, &out[0])
		}
	case "locc":
		prog = []sim.Instr{
			sim.Ins("locc", sim.I(uint64(ch)), sim.I(nn), sim.I(a1)),
			sim.Ins("hlt"),
		}
		inputs = []uint64{uint64(ch), nn, a1}
		check = func(m *sim.Machine, out []uint64) string {
			return diffRegs(m, map[string]uint64{"r0": out[0], "r1": out[1]}, nil)
		}
	case "movc3":
		prog = []sim.Instr{
			sim.Ins("movc3", sim.I(nn), sim.I(a1), sim.I(a1+4)), // overlap on purpose
			sim.Ins("hlt"),
		}
		inputs = []uint64{nn, a1, a1 + 4}
		check = func(m *sim.Machine, out []uint64) string {
			return diffRegs(m, map[string]uint64{"r0": 0, "r1": out[0], "r3": out[1]}, nil)
		}
	case "movc5":
		srclen := nn / 2 // shorter source: the fill path runs
		prog = []sim.Instr{
			sim.Ins("movc5", sim.I(srclen), sim.I(a1), sim.I(uint64(ch)), sim.I(nn), sim.I(a2)),
			sim.Ins("hlt"),
		}
		inputs = []uint64{srclen, a1, uint64(ch), nn, a2}
		check = func(m *sim.Machine, out []uint64) string {
			moved := srclen
			if nn < moved {
				moved = nn
			}
			return diffRegs(m, map[string]uint64{"r0": srclen - moved, "r1": out[0], "r3": out[1]}, nil)
		}
	case "cmpc3":
		prog = []sim.Instr{
			sim.Ins("cmpc3", sim.I(nn), sim.I(a1), sim.I(a2)),
			sim.Ins("hlt"),
		}
		inputs = []uint64{nn, a1, a2}
		check = func(m *sim.Machine, out []uint64) string {
			return diffRegs(m, map[string]uint64{"r0": out[0], "r1": out[1], "r3": out[2]}, nil)
		}
	case "mvc":
		lc := nn // length code: moves lc+1
		prog = []sim.Instr{
			sim.Ins("la", sim.R("r2"), sim.I(a2)),
			sim.Ins("la", sim.R("r3"), sim.I(a1)),
			sim.Ins("mvc", sim.I(lc), sim.M("r2"), sim.M("r3")),
			sim.Ins("hlt"),
		}
		inputs = []uint64{a2, a1, lc}
		check = func(m *sim.Machine, out []uint64) string { return "" } // memory-only
	case "clc":
		lc := nn
		prog = []sim.Instr{
			sim.Ins("la", sim.R("r2"), sim.I(a1)),
			sim.Ins("la", sim.R("r3"), sim.I(a2)),
			sim.Ins("clc", sim.I(lc), sim.M("r2"), sim.M("r3")),
			sim.Ins("hlt"),
		}
		inputs = []uint64{a1, a2, lc}
		check = func(m *sim.Machine, out []uint64) string {
			simCC := uint64(0)
			if !m.ZF {
				simCC = 1
			}
			if simCC != out[0] {
				return fmt.Sprintf("cc: sim %d, description %d", simCC, out[0])
			}
			return ""
		}
	case "tr":
		lc := nn
		prog = []sim.Instr{
			sim.Ins("la", sim.R("r2"), sim.I(a1)),
			sim.Ins("la", sim.R("r3"), sim.I(tb)),
			sim.Ins("tr", sim.I(lc), sim.M("r2"), sim.M("r3")),
			sim.Ins("hlt"),
		}
		inputs = []uint64{a1, tb, lc}
		check = func(m *sim.Machine, out []uint64) string { return "" }
	default:
		return "", fmt.Errorf("no differential mapping for %s", mn)
	}
	m, err := sim.NewMachine(t.ISA(), prog)
	if err != nil {
		return "", err
	}
	// Seed both sides identically: operand blocks at a1 and a2, the
	// translate table at tb.
	for i, c := range content {
		m.StoreByte(a1+uint64(i), c)
		st.Store(a1+uint64(i), c)
		m.StoreByte(a2+uint64(i), content[(i+7)%len(content)])
		st.Store(a2+uint64(i), content[(i+7)%len(content)])
	}
	for i := 0; i < 256; i++ {
		m.StoreByte(tb+uint64(i), byte(255-i))
		st.Store(tb+uint64(i), byte(255-i))
	}
	if err := m.Run(sweepMaxSteps); err != nil {
		return "sim: " + err.Error(), nil
	}
	res, err := interp.Run(context.TODO(), desc, inputs, st, 0)
	if err != nil {
		return "description: " + err.Error(), nil
	}
	if d := check(m, res.Outputs); d != "" {
		return d, nil
	}
	// Memory must agree wherever the description touched it, and the
	// operand neighborhoods must agree byte for byte.
	for _, base := range []uint64{a1, a2} {
		for i := uint64(0); i < uint64(len(content))+2; i++ {
			if m.LoadByte(base+i) != st.Load(base+i) {
				return fmt.Sprintf("mem[%d]: sim %#x, description %#x",
					base+i, m.LoadByte(base+i), st.Load(base+i)), nil
			}
		}
	}
	return "", nil
}

// descT aliases the corpus description type without importing its package
// name into every signature.
type descT = isps.Description

// diffRegs compares the named simulator registers (and optionally zf)
// against description outputs.
func diffRegs(m *sim.Machine, want map[string]uint64, zf *uint64) string {
	for _, r := range sortedKeys(want) {
		if got := m.Reg(r); got != want[r] {
			return fmt.Sprintf("%s: sim %d, description %d", r, got, want[r])
		}
	}
	if zf != nil {
		simZF := uint64(0)
		if m.ZF {
			simZF = 1
		}
		if simZF != *zf {
			return fmt.Sprintf("zf: sim %d, description %d", simZF, *zf)
		}
	}
	return ""
}

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// BindingSweep rechecks each catalog binding's proof-document integrity:
// the structural validation the code generator itself requires, plus the
// matcher's reflexivity over both stored descriptions. (The stored
// Operator/Variant are snapshots from the last non-preserving step, so
// matching them against *each other* is not a valid check — but each must
// still self-match, or the proof could never be reproduced.)
func BindingSweep() ([]Divergence, error) {
	bindings, err := codegen.Bindings()
	if err != nil {
		return nil, err
	}
	var divs []Divergence
	for i := range Catalog {
		b := &Catalog[i]
		cb, ok := bindings[b.Key]
		if !ok {
			divs = append(divs, Divergence{Axis: "binding", Target: b.Target,
				Case: b.Key, Detail: "no proven binding in the catalog"})
			continue
		}
		if err := cb.Validate(); err != nil {
			divs = append(divs, Divergence{Axis: "binding", Target: b.Target,
				Case: b.Key, Detail: "validate: " + err.Error()})
			continue
		}
		if err := equiv.Reflexive(cb.Operator); err != nil {
			divs = append(divs, Divergence{Axis: "binding", Target: b.Target,
				Case: b.Key, Detail: "operator self-match: " + err.Error()})
		}
		if err := equiv.Reflexive(cb.Variant); err != nil {
			divs = append(divs, Divergence{Axis: "binding", Target: b.Target,
				Case: b.Key, Detail: "variant self-match: " + err.Error()})
		}
		obs.Default().Inc("synth.sweep", "binding")
	}
	return divs, nil
}

// fnvHash is the 64-bit FNV-1a of a string, used to seed per-instruction
// RNGs deterministically.
func fnvHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
