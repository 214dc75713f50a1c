package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"extra/internal/codegen"
	"extra/internal/hll"
	"extra/internal/ir"
	"extra/internal/obs"
	"extra/internal/sim"
	"extra/internal/synth"
)

// boundaryLens are the operand lengths where length codings change shape
// (the 370's 8-bit length field ends at 256). Programs of these lengths
// over a fixed data block form the fixed set behind target_cycles and
// target_bytes.
var boundaryLens = []int{0, 1, 2, 255, 256, 257}

const (
	// seededLens is how many seeded lengths each (class, target) gets, one
	// per stratum of (2, maxLen], so the run's size mix barely moves with
	// the seed.
	seededLens = 10
	// maxLen keeps synth.Workload's blocks (at 1024 and 2048) disjoint.
	maxLen      = 1024
	simMaxSteps = 1 << 22
)

// program is one compile+run+check input.
type program struct {
	target, class string
	n             int
	src           string
	exotic        bool
	fixed         bool // a boundary-length program over the fixed data block
	ref           *ir.RefResult
	cycles        uint64 // from the set-up compile: every op must reproduce them
	bytes         int
	tgt           codegen.Target
}

func (p *program) opts() codegen.Options {
	if p.exotic {
		return codegen.AllOn()
	}
	return codegen.Options{}
}

func (p *program) label() string {
	mode := "decomposed"
	if p.exotic {
		mode = "exotic"
	}
	return fmt.Sprintf("%s/%s/%d/%s", p.target, p.class, p.n, mode)
}

// codegenBench compiles seeded synth.Workload programs for every operator
// class on every target whose generator has an exotic instruction for it,
// both exotic and decomposed. One op is one parse+compile+run+check.
type codegenBench struct {
	progs []*program
	order []int
}

// fixedData is the fixed block of the boundary programs: letters, with the
// index sentinel '!' as the last byte.
func fixedData(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + i%26)
	}
	if n > 0 {
		out[n-1] = '!'
	}
	return out
}

// seededData is a random block of letters; for the index class half the
// blocks hide a '!' at a random position, the rest make the search miss.
func seededData(rng *rand.Rand, class string, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + rng.Intn(26))
	}
	if class == "index" && n > 0 && rng.Intn(2) == 0 {
		out[rng.Intn(n)] = '!'
	}
	return out
}

// codegenPrograms generates the program sources for a seed.
func codegenPrograms(seed int64) ([]*program, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*program
	for _, b := range synth.Catalog {
		type sized struct {
			n     int
			data  []byte
			fixed bool
		}
		var sizes []sized
		for _, n := range boundaryLens {
			sizes = append(sizes, sized{n, fixedData(n), true})
		}
		stratum := (maxLen - 2) / seededLens
		for i := 0; i < seededLens; i++ {
			n := 3 + i*stratum + rng.Intn(stratum)
			sizes = append(sizes, sized{n, seededData(rng, b.Class, n), false})
		}
		for _, sz := range sizes {
			src, err := synth.Workload(b.Class, sz.n, sz.data)
			if err != nil {
				return nil, err
			}
			for _, exotic := range []bool{true, false} {
				out = append(out, &program{target: b.Target, class: b.Class, n: sz.n, src: src, exotic: exotic, fixed: sz.fixed})
			}
		}
	}
	return out, nil
}

func setupCodegen(seed int64, _ string) (bench, error) {
	if _, err := codegen.Bindings(); err != nil {
		return nil, err
	}
	progs, err := codegenPrograms(seed)
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		prog, err := hll.Parse(p.src)
		if err != nil {
			return nil, fmt.Errorf("%s: parse: %w", p.label(), err)
		}
		if p.ref, err = prog.RefRun(); err != nil {
			return nil, fmt.Errorf("%s: reference: %w", p.label(), err)
		}
		if p.tgt, err = codegen.For(p.target); err != nil {
			return nil, err
		}
		c, err := p.tgt.Compile(prog, p.opts())
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", p.label(), err)
		}
		m, err := codegen.Run(p.tgt, c, simMaxSteps)
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", p.label(), err)
		}
		p.cycles, p.bytes = m.Cycles, synth.CodeBytes(p.target, c.Code)
	}
	return &codegenBench{progs: progs, order: rand.New(rand.NewSource(seed + 1)).Perm(len(progs))}, nil
}

// compileRun is one op as layer calls: parse, compile, simulate, check.
func (c *codegenBench) compileRun(t *tracer, cnt counts, p *program) string {
	var prog *ir.Prog
	if err := t.do("hll.parse", func() (err error) {
		prog, err = hll.Parse(p.src)
		return err
	}); err != nil {
		return fmt.Sprintf("%s: parse: %v", p.label(), err)
	}
	var cp *codegen.Program
	if err := t.do("codegen.compile", func() (err error) {
		cp, err = p.tgt.Compile(prog, p.opts())
		return err
	}); err != nil {
		return fmt.Sprintf("%s: compile: %v", p.label(), err)
	}
	var m *sim.Machine
	if err := t.do("sim."+p.target, func() (err error) {
		m, err = codegen.Run(p.tgt, cp, simMaxSteps)
		return err
	}); err != nil {
		return fmt.Sprintf("%s: run: %v", p.label(), err)
	}
	out, cycles := m.Out, m.Cycles
	if cnt != nil {
		cnt.add("codegen.instrs", float64(len(cp.Code)))
		cnt.add("sim."+p.target+".kcycles", float64(cycles)/1000)
	}
	if len(out) != len(p.ref.Out) {
		return fmt.Sprintf("%s: %d outputs, reference %d", p.label(), len(out), len(p.ref.Out))
	}
	for i := range out {
		if out[i] != p.ref.Out[i] {
			return fmt.Sprintf("%s: out[%d] = %d, reference %d", p.label(), i, out[i], p.ref.Out[i])
		}
	}
	for addr, want := range p.ref.Mem {
		if got := m.LoadByte(addr); got != want {
			return fmt.Sprintf("%s: mem[%d] = %#x, reference %#x", p.label(), addr, got, want)
		}
	}
	if cycles != p.cycles || synth.CodeBytes(p.target, cp.Code) != p.bytes {
		return fmt.Sprintf("%s: %d cycles / %d bytes, first compile %d / %d: codegen is not deterministic",
			p.label(), cycles, synth.CodeBytes(p.target, cp.Code), p.cycles, p.bytes)
	}
	return ""
}

func (c *codegenBench) run(d time.Duration, _ bool) (*outcome, error) {
	o := drive(d, len(c.order), func(k int) (string, string) {
		i := c.order[k%len(c.order)]
		return strconv.Itoa(i), c.compileRun(nil, nil, c.progs[i])
	})
	var cycles, bytes []float64
	for _, p := range c.progs {
		if p.fixed {
			cycles = append(cycles, float64(p.cycles))
			bytes = append(bytes, float64(p.bytes))
		}
	}
	o.extra["target_cycles"] = geomean(cycles)
	o.extra["target_bytes"] = geomean(bytes)
	return o, nil
}

// codegenTracePasses is how many times the traced slice runs the program
// set; one pass is too short to time the layers steadily.
const codegenTracePasses = 4

// The traced slice is the program set codegenTracePasses times, in seeded
// order; the entry point is the same calls, since parse, compile and run
// are the public API.
func (c *codegenBench) entry(map[string]float64) error {
	for pass := 0; pass < codegenTracePasses; pass++ {
		for _, i := range c.order {
			if msg := c.compileRun(nil, nil, c.progs[i]); msg != "" {
				return fmt.Errorf("entry pass: %s", msg)
			}
		}
	}
	return nil
}

func (c *codegenBench) layers(t *tracer, cnt counts) error {
	fallback0 := obs.Default().Total("codegen.fallback")
	for pass := 0; pass < codegenTracePasses; pass++ {
		for _, i := range c.order {
			cnt.add("ops", 1)
			if msg := c.compileRun(t, cnt, c.progs[i]); msg != "" {
				cnt.add("failed", 1)
			}
		}
	}
	cnt.add("codegen.fallbacks", float64(obs.Default().Total("codegen.fallback")-fallback0))
	return nil
}

func (c *codegenBench) close() error { return nil }
