package codegen

import (
	"fmt"

	"extra/internal/ir"
	"extra/internal/sim"
)

// frameVAX is the VAX-11's frame: variables are 32-bit longwords from here
// on. Exotic operators use the bindings for movc3 (Pascal sassign, the
// extended-mode analysis), movc5 (PC2 blkclr), locc (Rigel index) and
// cmpc3 (Pascal scompare). String lengths on the VAX are limited to 16
// bits while the word is 32, the paper's example of a non-trivial range
// constraint — satisfied statically for constants, and otherwise by the
// constraint-satisfaction rewriting rule that moves consecutive substrings
// of at most 65535 bytes.
const frameVAX = 0xF000

// loadVAX brings an operand into a register (r11 is the frame scratch).
func (e *emitter) loadVAX(reg string, v ir.Value) {
	if v.IsConst {
		e.emit(sim.Ins("movl", sim.R(reg), sim.I(v.Const&0xffffffff)))
		return
	}
	e.emit(
		sim.Ins("movl", sim.R("r11"), sim.I(e.varAddr[v.Var])),
		sim.Ins("movl", sim.R(reg), sim.M("r11")),
	)
}

func (e *emitter) storeVAX(name, reg string) {
	e.emit(
		sim.Ins("movl", sim.R("r11"), sim.I(e.varAddr[name])),
		sim.Ins("movl", sim.M("r11"), sim.R(reg)),
	)
}

func (e *emitter) insVAX(ins ir.Ins) error {
	switch ins.Op {
	case ir.Data:
		e.dataSeg(ins.At, ins.Bytes)
		return nil
	case ir.Set:
		e.loadVAX("r6", ins.Args[0])
		e.storeVAX(ins.Dst, "r6")
		return nil
	case ir.Add, ir.Sub:
		e.loadVAX("r6", ins.Args[0])
		e.loadVAX("r7", ins.Args[1])
		mn := "addl"
		if ins.Op == ir.Sub {
			mn = "subl"
		}
		e.emit(sim.Ins(mn, sim.R("r6"), sim.R("r7")))
		e.storeVAX(ins.Dst, "r6")
		return nil
	case ir.LoadB:
		e.loadVAX("r6", ins.Args[0])
		e.emit(sim.Ins("movb", sim.R("r7"), sim.M("r6")))
		e.storeVAX(ins.Dst, "r7")
		return nil
	case ir.StoreB:
		e.loadVAX("r6", ins.Args[0])
		e.loadVAX("r7", ins.Args[1])
		e.emit(sim.Ins("movb", sim.M("r6"), sim.R("r7")))
		return nil
	case ir.Print:
		e.loadVAX("r6", ins.Args[0])
		e.emit(sim.Ins("out", sim.R("r6")))
		return nil
	case ir.Label:
		e.emit(sim.Lbl(userLabel(ins.Dst)))
		return nil
	case ir.Goto:
		e.emit(sim.Ins("brb", sim.L(userLabel(ins.Dst))))
		return nil
	case ir.IfZ, ir.IfNZ:
		e.loadVAX("r6", ins.Args[0])
		mn := "beql"
		if ins.Op == ir.IfNZ {
			mn = "bneq"
		}
		e.emit(
			sim.Ins("tstl", sim.R("r6")),
			sim.Ins(mn, sim.L(userLabel(ins.Dst))),
		)
		return nil
	case ir.Index:
		return e.indexVAX(ins)
	case ir.Move:
		return e.moveVAX(ins)
	case ir.Clear:
		return e.clearVAX(ins)
	case ir.Compare:
		return e.compareVAX(ins)
	case ir.Translate:
		return e.translateLoopVAX(ins)
	}
	return fmt.Errorf("codegen/vax: unsupported op %s", ins.Op)
}

// indexVAX emits the locc/index binding: save the start address (prologue
// augment), locc, then compute the 1-based index from the located address
// or return zero (epilogue augment).
func (e *emitter) indexVAX(ins ir.Ins) error {
	base, n, ch := ins.Args[0], ins.Args[1], ins.Args[2]
	if !e.opts.Exotic {
		return e.indexLoopVAX(ins)
	}
	b := e.usableBinding("VAX-11/locc/index", "index")
	// VAX variables are 32 bits, so a variable length cannot be verified
	// against locc's 16-bit field; only constants qualify.
	ok := b != nil &&
		constOK(b, "ch", ch, 0xff) &&
		constOK(b, "Src.Length", n, 0xffffffff) &&
		constOK(b, "Src.Base", base, 0xffffffff)
	if !ok {
		return e.indexLoopVAX(ins)
	}
	e.noteEmit("index", true)
	e.loadVAX("r1", base)
	e.loadVAX("r0", n)
	e.loadVAX("r2", ch)
	notFound, done := e.label("Lnf"), e.label("Ld")
	e.emit(
		sim.Ins("movl", sim.R("r4"), sim.R("r1")), // save start address (temp <- r1)
		sim.Ins("locc", sim.R("r2"), sim.R("r0"), sim.R("r1")),
		sim.Ins("tstl", sim.R("r0")),
		sim.Ins("beql", sim.L(notFound)),
		sim.Ins("subl", sim.R("r1"), sim.R("r4")), // r1 - temp
		sim.Ins("incl", sim.R("r1")),              // + 1: 1-based index
		sim.Ins("brb", sim.L(done)),
		sim.Lbl(notFound),
		sim.Ins("movl", sim.R("r1"), sim.I(0)),
		sim.Lbl(done),
	)
	e.storeVAX(ins.Dst, "r1")
	return nil
}

func (e *emitter) indexLoopVAX(ins ir.Ins) error {
	e.noteEmit("index", false)
	base, n, ch := ins.Args[0], ins.Args[1], ins.Args[2]
	e.loadVAX("r1", base)
	e.loadVAX("r0", n)
	e.loadVAX("r2", ch)
	e.emit(sim.Ins("andl", sim.R("r2"), sim.I(0xff))) // character type
	top, found, notFound, done := e.label("Lt"), e.label("Lf"), e.label("Ln"), e.label("Ld")
	e.emit(
		sim.Ins("movl", sim.R("r3"), sim.I(0)), // running index
		sim.Lbl(top),
		sim.Ins("cmpl", sim.R("r3"), sim.R("r0")),
		sim.Ins("beql", sim.L(notFound)),
		sim.Ins("movb", sim.R("r4"), sim.M("r1")),
		sim.Ins("cmpl", sim.R("r4"), sim.R("r2")),
		sim.Ins("beql", sim.L(found)),
		sim.Ins("incl", sim.R("r1")),
		sim.Ins("incl", sim.R("r3")),
		sim.Ins("brb", sim.L(top)),
		sim.Lbl(found),
		sim.Ins("incl", sim.R("r3")),
		sim.Ins("brb", sim.L(done)),
		sim.Lbl(notFound),
		sim.Ins("movl", sim.R("r3"), sim.I(0)),
		sim.Lbl(done),
	)
	e.storeVAX(ins.Dst, "r3")
	return nil
}

// moveVAX emits movc3 from the extended-mode movc3/sassign binding. A
// constant length within the 16-bit field goes straight through; an
// out-of-range or variable length is rewritten into chunked movc3s when
// rewriting is enabled (the paper's constraint-satisfaction rewriting
// rule), and decomposes otherwise.
func (e *emitter) moveVAX(ins ir.Ins) error {
	dst, src, n := ins.Args[0], ins.Args[1], ins.Args[2]
	if !e.opts.Exotic {
		return e.moveLoopVAX(ins)
	}
	b := e.usableBinding("VAX-11/movc3/sassign", "move")
	if b == nil {
		return e.moveLoopVAX(ins)
	}
	if constOK(b, "Len", n, 0xffffffff) && n.IsConst {
		e.noteEmit("move", true)
		e.loadVAX("r6", n)
		e.loadVAX("r7", src)
		e.loadVAX("r8", dst)
		e.emit(sim.Ins("movc3", sim.R("r6"), sim.R("r7"), sim.R("r8")))
		return nil
	}
	if !e.opts.Rewriting {
		return e.moveLoopVAX(ins)
	}
	e.noteEmit("move", true)
	// Rewriting rule: move consecutive substrings of at most 65535 bytes.
	e.loadVAX("r6", n)
	e.loadVAX("r7", src)
	e.loadVAX("r8", dst)
	top, last, done := e.label("Lt"), e.label("Ll"), e.label("Ld")
	e.emit(
		sim.Lbl(top),
		sim.Ins("cmpl", sim.R("r6"), sim.I(65536)),
		sim.Ins("blss", sim.L(last)),
		sim.Ins("movc3", sim.I(65535), sim.R("r7"), sim.R("r8")),
		sim.Ins("addl", sim.R("r7"), sim.I(65535)),
		sim.Ins("addl", sim.R("r8"), sim.I(65535)),
		sim.Ins("subl", sim.R("r6"), sim.I(65535)),
		sim.Ins("brb", sim.L(top)),
		sim.Lbl(last),
		sim.Ins("tstl", sim.R("r6")),
		sim.Ins("beql", sim.L(done)),
		sim.Ins("movc3", sim.R("r6"), sim.R("r7"), sim.R("r8")),
		sim.Lbl(done),
	)
	return nil
}

func (e *emitter) moveLoopVAX(ins ir.Ins) error {
	e.noteEmit("move", false)
	dst, src, n := ins.Args[0], ins.Args[1], ins.Args[2]
	e.loadVAX("r7", src)
	e.loadVAX("r8", dst)
	e.loadVAX("r6", n)
	top, done := e.label("Lt"), e.label("Ld")
	e.emit(
		sim.Ins("tstl", sim.R("r6")),
		sim.Ins("beql", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("movb", sim.R("r9"), sim.M("r7")),
		sim.Ins("movb", sim.M("r8"), sim.R("r9")),
		sim.Ins("incl", sim.R("r7")),
		sim.Ins("incl", sim.R("r8")),
		sim.Ins("sobgtr", sim.R("r6"), sim.L(top)),
		sim.Lbl(done),
	)
	return nil
}

// clearVAX emits the movc5/blkclr binding: srclen and fill fixed at zero.
func (e *emitter) clearVAX(ins ir.Ins) error {
	dst, n := ins.Args[0], ins.Args[1]
	if !e.opts.Exotic {
		return e.clearLoopVAX(ins)
	}
	b := e.usableBinding("VAX-11/movc5/blkclr", "clear")
	if b == nil {
		return e.clearLoopVAX(ins)
	}
	ok := constOK(b, "count", n, 0xffffffff)
	if !ok && e.opts.Rewriting {
		e.noteEmit("clear", true)
		// Chunk the fill like the move.
		e.loadVAX("r6", n)
		e.loadVAX("r8", dst)
		top, last, done := e.label("Lt"), e.label("Ll"), e.label("Ld")
		e.emit(
			sim.Lbl(top),
			sim.Ins("cmpl", sim.R("r6"), sim.I(65536)),
			sim.Ins("blss", sim.L(last)),
			sim.Ins("movc5", sim.I(0), sim.R("r8"), sim.I(0), sim.I(65535), sim.R("r8")),
			sim.Ins("addl", sim.R("r8"), sim.I(65535)),
			sim.Ins("subl", sim.R("r6"), sim.I(65535)),
			sim.Ins("brb", sim.L(top)),
			sim.Lbl(last),
			sim.Ins("tstl", sim.R("r6")),
			sim.Ins("beql", sim.L(done)),
			sim.Ins("movc5", sim.I(0), sim.R("r8"), sim.I(0), sim.R("r6"), sim.R("r8")),
			sim.Lbl(done),
		)
		return nil
	}
	if !ok {
		return e.clearLoopVAX(ins)
	}
	e.noteEmit("clear", true)
	e.loadVAX("r6", n)
	e.loadVAX("r8", dst)
	// movc5 srclen=0, src immaterial, fill=0, dstlen, dst: the fixed
	// operands realize the binding's value constraints.
	e.emit(sim.Ins("movc5", sim.I(0), sim.R("r8"), sim.I(0), sim.R("r6"), sim.R("r8")))
	return nil
}

func (e *emitter) clearLoopVAX(ins ir.Ins) error {
	e.noteEmit("clear", false)
	dst, n := ins.Args[0], ins.Args[1]
	e.loadVAX("r8", dst)
	e.loadVAX("r6", n)
	top, done := e.label("Lt"), e.label("Ld")
	e.emit(
		sim.Ins("tstl", sim.R("r6")),
		sim.Ins("beql", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("movb", sim.M("r8"), sim.I(0)),
		sim.Ins("incl", sim.R("r8")),
		sim.Ins("sobgtr", sim.R("r6"), sim.L(top)),
		sim.Lbl(done),
	)
	return nil
}

// compareVAX emits the cmpc3/scompare binding: r0 = 0 on exit means equal.
func (e *emitter) compareVAX(ins ir.Ins) error {
	a, bb, n := ins.Args[0], ins.Args[1], ins.Args[2]
	if !e.opts.Exotic {
		return e.compareLoopVAX(ins)
	}
	b := e.usableBinding("VAX-11/cmpc3/scompare", "compare")
	ok := b != nil && constOK(b, "Len", n, 0xffffffff)
	if !ok {
		return e.compareLoopVAX(ins)
	}
	e.noteEmit("compare", true)
	e.loadVAX("r0", n)
	e.loadVAX("r1", a)
	e.loadVAX("r3", bb)
	eq, done := e.label("Le"), e.label("Ld")
	e.emit(
		sim.Ins("cmpc3", sim.R("r0"), sim.R("r1"), sim.R("r3")),
		sim.Ins("tstl", sim.R("r0")),
		sim.Ins("beql", sim.L(eq)),
		sim.Ins("movl", sim.R("r6"), sim.I(0)),
		sim.Ins("brb", sim.L(done)),
		sim.Lbl(eq),
		sim.Ins("movl", sim.R("r6"), sim.I(1)),
		sim.Lbl(done),
	)
	e.storeVAX(ins.Dst, "r6")
	return nil
}

func (e *emitter) compareLoopVAX(ins ir.Ins) error {
	e.noteEmit("compare", false)
	a, bb, n := ins.Args[0], ins.Args[1], ins.Args[2]
	e.loadVAX("r1", a)
	e.loadVAX("r3", bb)
	e.loadVAX("r0", n)
	top, differ, done := e.label("Lt"), e.label("Lx"), e.label("Ld")
	e.emit(
		sim.Ins("movl", sim.R("r6"), sim.I(1)),
		sim.Ins("tstl", sim.R("r0")),
		sim.Ins("beql", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("movb", sim.R("r7"), sim.M("r1")),
		sim.Ins("movb", sim.R("r8"), sim.M("r3")),
		sim.Ins("cmpl", sim.R("r7"), sim.R("r8")),
		sim.Ins("bneq", sim.L(differ)),
		sim.Ins("incl", sim.R("r1")),
		sim.Ins("incl", sim.R("r3")),
		sim.Ins("sobgtr", sim.R("r0"), sim.L(top)),
		sim.Ins("brb", sim.L(done)),
		sim.Lbl(differ),
		sim.Ins("movl", sim.R("r6"), sim.I(0)),
		sim.Lbl(done),
	)
	e.storeVAX(ins.Dst, "r6")
	return nil
}

// translateLoopVAX translates byte by byte (no VAX translate binding was
// proved; movtc is listed as a future analysis).
func (e *emitter) translateLoopVAX(ins ir.Ins) error {
	e.noteEmit("translate", false)
	base, table, n := ins.Args[0], ins.Args[1], ins.Args[2]
	e.loadVAX("r7", base)
	e.loadVAX("r8", table)
	e.loadVAX("r6", n)
	top, done := e.label("Lt"), e.label("Ld")
	e.emit(
		sim.Ins("tstl", sim.R("r6")),
		sim.Ins("beql", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("movb", sim.R("r9"), sim.M("r7")),
		sim.Ins("movl", sim.R("r10"), sim.R("r8")),
		sim.Ins("addl", sim.R("r10"), sim.R("r9")),
		sim.Ins("movb", sim.R("r9"), sim.M("r10")),
		sim.Ins("movb", sim.M("r7"), sim.R("r9")),
		sim.Ins("incl", sim.R("r7")),
		sim.Ins("sobgtr", sim.R("r6"), sim.L(top)),
		sim.Lbl(done),
	)
	return nil
}

// clobbersVAX lists registers an instruction may write.
func clobbersVAX(in sim.Instr) []string {
	switch in.Mn {
	case "movl", "movb", "addl", "subl", "andl", "incl", "decl":
		if len(in.Ops) > 0 && in.Ops[0].Kind == sim.KReg {
			return []string{in.Ops[0].Reg}
		}
		return nil
	case "movc3":
		return []string{"r0", "r1", "r3"}
	case "movc5":
		return []string{"r0", "r1", "r3"}
	case "locc":
		return []string{"r0", "r1"}
	case "cmpc3":
		return []string{"r0", "r1", "r3"}
	case "sobgtr":
		return []string{in.Ops[0].Reg}
	case "cmpl", "tstl", "out", "nop", "hlt":
		return nil
	}
	return nil
}
