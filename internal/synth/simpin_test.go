package synth

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"extra/internal/codegen"
	"extra/internal/gg"
	"extra/internal/hll"
	"extra/internal/sim"
)

// pinCase is one program of the simulator pin: its code, the target that
// runs it and the data stored before the run.
type pinCase struct {
	name, target string
	code         []sim.Instr
	data         []codegen.DataSeg
}

// pinRow is what a finished run leaves: its cycles plus digests of the
// out stream, all 64 KiB of memory and every register.
type pinRow struct {
	name                  string
	cycles, out, mem, reg uint64
}

// pinImplicit lists the registers each target's string instructions read
// or write without naming them in an operand.
var pinImplicit = map[string][]string{
	"i8086": {"al", "bx", "cx", "di", "si"},
	"vax":   {"r0", "r1", "r3"},
}

// pinLens are the boundary lengths every catalog binding runs at; each
// also runs at pinSeeded lengths drawn from (2, 1024].
var pinLens = []int{0, 1, 2, 255, 256, 257}

const pinSeeded = 3

// pinCases builds the pinned program set: every catalog (class, target)
// at the boundary and seeded lengths, exotic and decomposed; the
// tokenizer and motivation programs on every target both ways; the gg
// demo; and per target a program that stores words across power-of-two
// boundaries and at 0xFFFF, where a word wraps to address 0.
func pinCases(t testing.TB) []pinCase {
	t.Helper()
	var out []pinCase
	compile := func(name, target, src string, opts codegen.Options) {
		prog, err := hll.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tg, err := codegen.For(target)
		if err != nil {
			t.Fatal(err)
		}
		p, err := tg.Compile(prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, pinCase{name, target, p.Code, p.Data})
	}
	modes := []struct {
		tag  string
		opts codegen.Options
	}{{"exotic", codegen.AllOn()}, {"decomposed", codegen.Options{}}}

	rng := rand.New(rand.NewSource(22))
	for _, b := range Catalog {
		type sized struct {
			n    int
			data []byte
		}
		var sizes []sized
		for _, n := range pinLens {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte('a' + i%26)
			}
			if n > 0 {
				data[n-1] = '!'
			}
			sizes = append(sizes, sized{n, data})
		}
		for k := 0; k < pinSeeded; k++ {
			n := 3 + rng.Intn(1022)
			data := make([]byte, n)
			for i := range data {
				data[i] = byte('a' + rng.Intn(26))
			}
			if rng.Intn(2) == 0 {
				data[rng.Intn(n)] = '!'
			}
			sizes = append(sizes, sized{n, data})
		}
		for _, sz := range sizes {
			src, err := Workload(b.Class, sz.n, sz.data)
			if err != nil {
				t.Fatal(err)
			}
			for _, md := range modes {
				compile(fmt.Sprintf("%s/%s/%d/%s", b.Target, b.Class, sz.n, md.tag), b.Target, src, md.opts)
			}
		}
	}

	data := strings.Repeat("a", 256)
	motivation := []struct{ name, src string }{
		{"move", fmt.Sprintf("data 1024 %q\nmove 8192 1024 256", data)},
		{"search", fmt.Sprintf("data 1024 %q\nlet i = index 1024 256 'z'\nprint i", data)},
	}
	for _, target := range codegen.Targets() {
		for _, p := range motivation {
			for _, exotic := range []bool{true, false} {
				compile(fmt.Sprintf("%s/%s/exotic=%v", target, p.name, exotic), target, p.src,
					codegen.Options{Exotic: exotic, Rewriting: true})
			}
		}
		for _, md := range modes {
			compile(target+"/tokenizer/"+md.tag, target, pinTokenizer, md.opts)
		}
	}

	g := gg.NewGen(gg.Rules8086(), gg.Pool8086(), map[string]uint64{"r": 0xF000, "n": 0xF002})
	for _, s := range []*gg.Tree{
		gg.Assign("n", gg.Const(10)),
		gg.Assign("r", &gg.Tree{Op: "index", Kids: []*gg.Tree{
			gg.Const(200), gg.Op2("+", gg.Var("n"), gg.Const(1)), gg.Const('v'),
		}}),
		gg.Out(gg.Var("r")),
		gg.Out(gg.Op2("+", gg.Var("r"), gg.Const(1))),
	} {
		if err := g.GenStmt(s); err != nil {
			t.Fatal(err)
		}
	}
	out = append(out, pinCase{"i8086/gg-demo", "i8086", append(g.Code(), sim.Ins("hlt")),
		[]codegen.DataSeg{{At: 200, Bytes: []byte("table-drive")}}})

	for _, target := range codegen.Targets() {
		out = append(out, pinCase{target + "/straddle", target, pinStraddle(target), nil})
	}
	return out
}

// pinTokenizer is the tokenizer example's program.
const pinTokenizer = `
data 100 "alpha,beta,gamma,delta,"
let p = 100
let remaining = 23
let outp = 600
label top
ifz remaining done
let i = index p remaining ','
ifz i done
let fieldlen = sub i 1
move outp p fieldlen
let outp = add outp fieldlen
storeb outp '/'
let outp = add outp 1
let p = add p i
let remaining = sub remaining i
goto top
label done
let len = sub outp 600
print len
`

// pinStraddle stores a word at each address that crosses a power-of-two
// boundary (and at 0xFFFF, which wraps to 0), reads it back as a word and
// as its bytes, and prints what it read.
func pinStraddle(target string) []sim.Instr {
	var code []sim.Instr
	for k, addr := range []uint64{0x00FF, 0x03FE, 0x0FFD, 0x7FFF, 0xFFFF} {
		v := 0xA1B2C3D4 + uint64(k)*0x01010101
		switch target {
		case "i8086":
			code = append(code,
				sim.Ins("mov", sim.R("si"), sim.I(addr)),
				sim.Ins("mov", sim.R("ax"), sim.I(v&0xffff)),
				sim.Ins("movw", sim.M("si"), sim.R("ax")),
				sim.Ins("movw", sim.R("dx"), sim.M("si")),
				sim.Ins("out", sim.R("dx")),
				sim.Ins("mov", sim.R("al"), sim.M("si")),
				sim.Ins("out", sim.R("al")),
				sim.Ins("inc", sim.R("si")),
				sim.Ins("mov", sim.R("al"), sim.M("si")),
				sim.Ins("out", sim.R("al")))
		case "vax":
			code = append(code,
				sim.Ins("movl", sim.R("r2"), sim.I(addr)),
				sim.Ins("movl", sim.R("r4"), sim.I(v)),
				sim.Ins("movl", sim.M("r2"), sim.R("r4")),
				sim.Ins("movl", sim.R("r5"), sim.M("r2")),
				sim.Ins("out", sim.R("r5")),
				sim.Ins("movb", sim.R("r6"), sim.MD("r2", 3)),
				sim.Ins("out", sim.R("r6")))
		case "ibm370":
			code = append(code,
				sim.Ins("la", sim.R("r2"), sim.I(addr)),
				sim.Ins("la", sim.R("r4"), sim.I(v)),
				sim.Ins("st", sim.R("r4"), sim.M("r2")),
				sim.Ins("l", sim.R("r5"), sim.M("r2")),
				sim.Ins("out", sim.R("r5")),
				sim.Ins("ic", sim.R("r6"), sim.MD("r2", 3)),
				sim.Ins("out", sim.R("r6")))
		}
	}
	return append(code, sim.Ins("hlt"))
}

// pinRun runs one case on a fresh machine and digests what it leaves.
func pinRun(t testing.TB, c pinCase) pinRow {
	t.Helper()
	tg, err := codegen.For(c.target)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewMachine(tg.ISA(), c.code)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	for _, d := range c.data {
		m.StoreBytes(d.At, d.Bytes)
	}
	if err := m.Run(1 << 22); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	row := pinRow{name: c.name, cycles: m.Cycles}
	out := fnv.New64a()
	pinWord(out, uint64(len(m.Out)))
	for _, v := range m.Out {
		pinWord(out, v)
	}
	row.out = out.Sum64()
	mem := fnv.New64a()
	for a := uint64(0); a < sim.MemSize; a++ {
		pinWord(mem, uint64(m.LoadByte(a)))
	}
	row.mem = mem.Sum64()
	names := map[string]bool{}
	for _, r := range pinImplicit[c.target] {
		names[r] = true
	}
	for _, in := range c.code {
		for _, o := range in.Ops {
			if o.Kind == sim.KReg || o.Kind == sim.KMem {
				names[o.Reg] = true
			}
		}
	}
	sorted := make([]string, 0, len(names))
	for r := range names {
		sorted = append(sorted, r)
	}
	sort.Strings(sorted)
	reg := fnv.New64a()
	for _, r := range sorted {
		name := fnv.New64a()
		name.Write([]byte(r))
		pinWord(reg, name.Sum64())
		pinWord(reg, m.Reg(r))
	}
	row.reg = reg.Sum64()
	return row
}

// pinWord adds v to a digest as 8 little-endian bytes.
func pinWord(h hash.Hash64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

// TestSimulatorsMatchPinnedRuns runs every pinned program and compares
// its cycles, out stream, whole memory and registers with the values the
// map-based simulators (one string-keyed register map and one zeroed
// 64 KiB image per machine) produced for the same programs.
func TestSimulatorsMatchPinnedRuns(t *testing.T) {
	cases := pinCases(t)
	want := map[string]pinRow{}
	for _, r := range pinnedRuns {
		want[r.name] = r
	}
	if len(cases) != len(pinnedRuns) {
		t.Errorf("%d pinned programs, table has %d rows", len(cases), len(pinnedRuns))
	}
	for _, c := range cases {
		got := pinRun(t, c)
		w, ok := want[c.name]
		switch {
		case !ok:
			t.Errorf("%s: not in the pinned table", c.name)
		case got.cycles != w.cycles:
			t.Errorf("%s: %d cycles, pinned %d", c.name, got.cycles, w.cycles)
		case got.out != w.out:
			t.Errorf("%s: out stream differs from the pinned run", c.name)
		case got.mem != w.mem:
			t.Errorf("%s: memory differs from the pinned run", c.name)
		case got.reg != w.reg:
			t.Errorf("%s: registers differ from the pinned run", c.name)
		}
	}
}
