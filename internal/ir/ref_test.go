package ir_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"extra/internal/hll"
	"extra/internal/ir"
	"extra/internal/synth"
)

// refRun is the reference RefRun is held to: the evaluator it replaced,
// which keeps memory in a byte-keyed map grown one byte at a time.
func refRun(p *ir.Prog) (*ir.RefResult, error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	r := &ir.RefResult{Mem: map[uint64]byte{}, Vars: map[string]uint64{}}
	val := func(v ir.Value) uint64 {
		if v.IsConst {
			return v.Const
		}
		return r.Vars[v.Var]
	}
	labels := map[string]int{}
	for n, i := range p.Ins {
		if i.Op == ir.Label {
			labels[i.Dst] = n
		}
	}
	const budget = 1 << 22
	steps := 0
	for pc := 0; pc < len(p.Ins); pc++ {
		if steps++; steps > budget {
			return nil, fmt.Errorf("ir: reference run exceeded %d steps (non-terminating loop?)", budget)
		}
		i := p.Ins[pc]
		switch i.Op {
		case ir.Label:
			// no effect
		case ir.Goto:
			pc = labels[i.Dst]
		case ir.IfZ:
			if val(i.Args[0]) == 0 {
				pc = labels[i.Dst]
			}
		case ir.IfNZ:
			if val(i.Args[0]) != 0 {
				pc = labels[i.Dst]
			}
		case ir.Data:
			for k, b := range i.Bytes {
				r.Mem[i.At+uint64(k)] = b
			}
		case ir.Set:
			r.Vars[i.Dst] = val(i.Args[0])
		case ir.Add:
			r.Vars[i.Dst] = val(i.Args[0]) + val(i.Args[1])
		case ir.Sub:
			r.Vars[i.Dst] = val(i.Args[0]) - val(i.Args[1])
		case ir.LoadB:
			r.Vars[i.Dst] = uint64(r.Mem[val(i.Args[0])])
		case ir.StoreB:
			r.Mem[val(i.Args[0])] = byte(val(i.Args[1]))
		case ir.Index:
			base, n, ch := val(i.Args[0]), val(i.Args[1]), val(i.Args[2])
			r.Vars[i.Dst] = 0
			for k := uint64(0); k < n; k++ {
				if uint64(r.Mem[base+k]) == ch&0xff {
					r.Vars[i.Dst] = k + 1
					break
				}
			}
		case ir.Move:
			dst, src, n := val(i.Args[0]), val(i.Args[1]), val(i.Args[2])
			for k := uint64(0); k < n; k++ {
				r.Mem[dst+k] = r.Mem[src+k]
			}
		case ir.Clear:
			dst, n := val(i.Args[0]), val(i.Args[1])
			for k := uint64(0); k < n; k++ {
				r.Mem[dst+k] = 0
			}
		case ir.Compare:
			a, b, n := val(i.Args[0]), val(i.Args[1]), val(i.Args[2])
			eq := uint64(1)
			for k := uint64(0); k < n; k++ {
				if r.Mem[a+k] != r.Mem[b+k] {
					eq = 0
					break
				}
			}
			r.Vars[i.Dst] = eq
		case ir.Translate:
			base, table, n := val(i.Args[0]), val(i.Args[1]), val(i.Args[2])
			for k := uint64(0); k < n; k++ {
				r.Mem[base+k] = r.Mem[table+uint64(r.Mem[base+k])]
			}
		case ir.Print:
			r.Out = append(r.Out, val(i.Args[0]))
		}
	}
	return r, nil
}

// diffRef runs p on RefRun and on the reference and describes the first
// difference in error text, output, memory or variables.
func diffRef(p *ir.Prog) string {
	got, gotErr := p.RefRun()
	want, wantErr := refRun(p)
	switch {
	case fmt.Sprint(gotErr) != fmt.Sprint(wantErr):
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	case gotErr != nil:
		return ""
	case !slices.Equal(got.Out, want.Out) || (got.Out == nil) != (want.Out == nil):
		return fmt.Sprintf("out %v, reference %v", got.Out, want.Out)
	case !maps.Equal(got.Mem, want.Mem):
		var addrs []uint64
		for _, m := range []map[uint64]byte{got.Mem, want.Mem} {
			for a := range m {
				addrs = append(addrs, a)
			}
		}
		slices.Sort(addrs)
		for _, a := range addrs {
			g, gok := got.Mem[a]
			w, wok := want.Mem[a]
			if g != w || gok != wok {
				return fmt.Sprintf("mem[%d] = %#x (written %v), reference %#x (written %v)", a, g, gok, w, wok)
			}
		}
	case !maps.Equal(got.Vars, want.Vars):
		return fmt.Sprintf("vars %v, reference %v", got.Vars, want.Vars)
	}
	return ""
}

var classes = []string{"index", "move", "compare", "clear", "xlate"}

// workloadData is n bytes of seeded text with the index workload's '!'
// sentinel somewhere in it, or nowhere when rng says so.
func workloadData(rng *rand.Rand, n int) []byte {
	const block = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	data := make([]byte, n)
	for i := range data {
		data[i] = block[rng.Intn(len(block))]
	}
	if n > 0 && rng.Intn(3) != 0 {
		data[rng.Intn(n)] = '!'
	}
	return data
}

// c and v abbreviate constant and variable operands.
var c, v = ir.C, ir.V

// edgeCases are programs at the edges of the evaluator's memory and
// control: page and 64 KiB boundaries, addresses that wrap past 2^64-1,
// overlapping operands, bytes never written, and the step budget.
var edgeCases = map[string][]ir.Ins{
	"page boundary": {
		{Op: ir.Data, At: 250, Bytes: []byte("0123456789ab")},
		{Op: ir.Move, Args: []ir.Value{c(510), c(250), c(12)}},
		{Op: ir.LoadB, Dst: "lo", Args: []ir.Value{c(255)}},
		{Op: ir.LoadB, Dst: "hi", Args: []ir.Value{c(256)}},
		{Op: ir.Print, Args: []ir.Value{v("lo")}},
		{Op: ir.Print, Args: []ir.Value{v("hi")}},
		{Op: ir.Index, Dst: "i", Args: []ir.Value{c(510), c(12), c('9')}},
		{Op: ir.Print, Args: []ir.Value{v("i")}},
	},
	"64 KiB boundary": {
		{Op: ir.Data, At: 65530, Bytes: []byte("0123456789ab")},
		{Op: ir.StoreB, Args: []ir.Value{c(65535), c(300)}},
		{Op: ir.StoreB, Args: []ir.Value{c(65536), c('Z')}},
		{Op: ir.Move, Args: []ir.Value{c(1 << 32), c(65530), c(12)}},
		{Op: ir.Compare, Dst: "e", Args: []ir.Value{c(1 << 32), c(65530), c(12)}},
		{Op: ir.Print, Args: []ir.Value{v("e")}},
		{Op: ir.Clear, Args: []ir.Value{c(65534), c(4)}},
		{Op: ir.LoadB, Dst: "b", Args: []ir.Value{c(1<<32 + 6)}},
		{Op: ir.Print, Args: []ir.Value{v("b")}},
	},
	"wrap past 2^64-1": {
		{Op: ir.Data, At: 1<<64 - 3, Bytes: []byte("wrapped")},
		{Op: ir.Set, Dst: "top", Args: []ir.Value{c(1<<64 - 5)}},
		{Op: ir.Index, Dst: "i", Args: []ir.Value{v("top"), c(9), c('e')}},
		{Op: ir.Print, Args: []ir.Value{v("i")}},
		{Op: ir.Move, Args: []ir.Value{c(1<<64 - 1), c(1<<64 - 3), c(7)}},
		{Op: ir.Add, Dst: "k", Args: []ir.Value{v("top"), c(8)}},
		{Op: ir.LoadB, Dst: "b", Args: []ir.Value{v("k")}},
		{Op: ir.Print, Args: []ir.Value{v("b")}},
		{Op: ir.Translate, Args: []ir.Value{c(1<<64 - 2), c(0), c(5)}},
		{Op: ir.Compare, Dst: "e", Args: []ir.Value{c(1<<64 - 2), c(1<<64 - 1), c(4)}},
		{Op: ir.Print, Args: []ir.Value{v("e")}},
	},
	"overlapping move": {
		{Op: ir.Data, At: 100, Bytes: []byte("abcdefgh")},
		{Op: ir.Move, Args: []ir.Value{c(101), c(100), c(20)}},
		{Op: ir.Move, Args: []ir.Value{c(98), c(100), c(20)}},
		{Op: ir.Compare, Dst: "e", Args: []ir.Value{c(100), c(101), c(15)}},
		{Op: ir.Print, Args: []ir.Value{v("e")}},
	},
	"xlate through a table over its string": {
		{Op: ir.Data, At: 200, Bytes: []byte("\x00\x01\x02\x05\x03\x04\xff\xfe")},
		{Op: ir.Translate, Args: []ir.Value{c(200), c(200), c(8)}},
		{Op: ir.Translate, Args: []ir.Value{c(203), c(197), c(300)}},
		{Op: ir.LoadB, Dst: "b", Args: []ir.Value{c(205)}},
		{Op: ir.Print, Args: []ir.Value{v("b")}},
	},
	"loadb of a byte never written": {
		{Op: ir.Data, At: 10, Bytes: []byte("x")},
		{Op: ir.LoadB, Dst: "b", Args: []ir.Value{c(11)}},
		{Op: ir.LoadB, Dst: "h", Args: []ir.Value{c(1 << 40)}},
		{Op: ir.Add, Dst: "s", Args: []ir.Value{v("b"), v("h")}},
		{Op: ir.Print, Args: []ir.Value{v("s")}},
		{Op: ir.Index, Dst: "i", Args: []ir.Value{c(5000), c(40), c(0)}},
		{Op: ir.Print, Args: []ir.Value{v("i")}},
	},
	"clear where nothing was stored": {
		{Op: ir.Clear, Args: []ir.Value{c(300), c(600)}},
		{Op: ir.Clear, Args: []ir.Value{c(1<<64 - 2), c(4)}},
		{Op: ir.Compare, Dst: "e", Args: []ir.Value{c(300), c(7000), c(600)}},
		{Op: ir.Print, Args: []ir.Value{v("e")}},
	},
	"goto skips a definition": {
		{Op: ir.Set, Dst: "n", Args: []ir.Value{c(3)}},
		{Op: ir.Goto, Dst: "L"},
		{Op: ir.Set, Dst: "skipped", Args: []ir.Value{c(9)}},
		{Op: ir.Label, Dst: "L"},
		{Op: ir.Print, Args: []ir.Value{v("skipped")}},
		{Op: ir.Label, Dst: "top"},
		{Op: ir.StoreB, Args: []ir.Value{v("n"), v("n")}},
		{Op: ir.Sub, Dst: "n", Args: []ir.Value{v("n"), c(1)}},
		{Op: ir.IfNZ, Dst: "top", Args: []ir.Value{v("n")}},
		{Op: ir.IfZ, Dst: "end", Args: []ir.Value{v("n")}},
		{Op: ir.Print, Args: []ir.Value{c(99)}},
		{Op: ir.Label, Dst: "end"},
	},
	"step budget": {
		{Op: ir.Set, Dst: "n", Args: []ir.Value{c(1)}},
		{Op: ir.Label, Dst: "top"},
		{Op: ir.StoreB, Args: []ir.Value{c(7), v("n")}},
		{Op: ir.Goto, Dst: "top"},
	},
	"check error": {
		{Op: ir.Goto, Dst: "nowhere"},
	},
}

// TestRefRunMatchesReference holds RefRun to the memory-map evaluator it
// replaced on every workload class at the boundary lengths and at seeded
// lengths up to 1,024, and on programs at the edges of memory and
// control.
func TestRefRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, class := range classes {
		lens := []int{0, 1, 2, 255, 256, 257}
		for range 8 {
			lens = append(lens, 3+rng.Intn(1022))
		}
		for _, n := range lens {
			src, err := synth.Workload(class, n, workloadData(rng, n))
			if err != nil {
				t.Fatal(err)
			}
			if msg := diffRef(hll.MustParse(src)); msg != "" {
				t.Errorf("%s/%d: %s", class, n, msg)
			}
		}
	}
	for name, ins := range edgeCases {
		if msg := diffRef(&ir.Prog{Ins: ins}); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}
}

// TestRefRunConcurrent runs RefRun from several goroutines at once, so
// that runs take and return the pooled memories concurrently; run it
// under -race.
func TestRefRunConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var progs []*ir.Prog
	for _, class := range classes {
		for _, n := range []int{1, 255, 257, 700} {
			src, err := synth.Workload(class, n, workloadData(rng, n))
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, hll.MustParse(src))
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				if msg := diffRef(progs[(g+i)%len(progs)]); msg != "" {
					t.Error(msg)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// fuzzProg builds a small checked program from fuzz bytes. Four variables
// are defined first; after that each instruction reads its operation and
// operands from the bytes, and lengths are constants below 300. Branches
// form loops, closed by ifnz or by ifz and goto, over a counter only the
// loop writes, nested at most two deep, and forward ifnz branches over a
// block that defines a variable read after it.
func fuzzProg(code []byte) *ir.Prog {
	next := func() byte {
		if len(code) == 0 {
			return 0
		}
		b := code[0]
		code = code[1:]
		return b
	}
	vars := []string{"a", "b", "c", "d"}
	addrs := []uint64{0, 250, 255, 256, 1024, 65535, 65536, 1 << 32, 1<<64 - 3}
	constant := func() ir.Value {
		if b := next(); b%2 == 0 {
			return c(uint64(b))
		}
		return c(addrs[next()%uint8(len(addrs))] + uint64(next()%16))
	}
	value := func() ir.Value {
		if next()%3 == 0 {
			return v(vars[next()%4])
		}
		return constant()
	}
	length := func() ir.Value { return c(uint64(next()) + uint64(next()%2)*44) }
	p := &ir.Prog{}
	emit := func(op ir.Op, dst string, args ...ir.Value) {
		p.Ins = append(p.Ins, ir.Ins{Op: op, Dst: dst, Args: args})
	}
	for _, name := range vars {
		emit(ir.Set, name, constant())
	}
	labels := 0
	var body func(depth int)
	body = func(depth int) {
		for range 1 + next()%6 {
			if len(code) == 0 {
				return
			}
			dst := vars[next()%4]
			switch op := next() % 16; op {
			case 0:
				emit(ir.Set, dst, value())
			case 1:
				emit(ir.Add, dst, value(), value())
			case 2:
				emit(ir.Sub, dst, value(), value())
			case 3:
				emit(ir.LoadB, dst, value())
			case 4:
				emit(ir.StoreB, "", value(), value())
			case 5:
				emit(ir.Index, dst, value(), length(), value())
			case 6:
				emit(ir.Move, "", value(), value(), length())
			case 7:
				emit(ir.Clear, "", value(), length())
			case 8:
				emit(ir.Compare, dst, value(), value(), length())
			case 9:
				emit(ir.Translate, "", value(), value(), length())
			case 10:
				at := addrs[next()%uint8(len(addrs))]
				bs := make([]byte, next()%40)
				for i := range bs {
					bs[i] = next()
				}
				p.Ins = append(p.Ins, ir.Ins{Op: ir.Data, At: at, Bytes: bs})
			case 11, 12:
				if depth >= 2 {
					emit(ir.Print, "", value())
					continue
				}
				labels++
				top, cnt := "L"+strconv.Itoa(labels), "n"+strconv.Itoa(labels)
				emit(ir.Set, cnt, c(1+uint64(next()%4)))
				emit(ir.Label, top)
				body(depth + 1)
				emit(ir.Sub, cnt, v(cnt), c(1))
				if op == 11 {
					emit(ir.IfNZ, top, v(cnt))
				} else {
					// Leave through ifz once the counter's copy is
					// zero, else go round again.
					emit(ir.Sub, cnt+"z", v(cnt), c(0))
					emit(ir.IfZ, "F"+top, v(cnt+"z"))
					emit(ir.Goto, top)
					emit(ir.Label, "F"+top)
				}
			case 13:
				labels++
				skip, s := "S"+strconv.Itoa(labels), "s"+strconv.Itoa(labels)
				emit(ir.IfNZ, skip, value())
				emit(ir.Set, s, value())
				body(depth + 1)
				emit(ir.Label, skip)
				emit(ir.Print, "", v(s))
			default:
				emit(ir.Print, "", value())
			}
		}
	}
	for len(code) > 0 {
		body(0)
	}
	return p
}

// FuzzRefRunMatchesReference holds RefRun to the memory-map evaluator on
// small programs drawn from the fuzz bytes, with loops on bounded
// counters.
func FuzzRefRunMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 16 {
		b := make([]byte, rng.Intn(120))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		p := fuzzProg(code)
		if err := p.Check(); err != nil {
			t.Fatalf("generated program fails Check: %v\n%s", err, p)
		}
		if msg := diffRef(p); msg != "" {
			t.Fatalf("%s\n%s", msg, p)
		}
	})
}
