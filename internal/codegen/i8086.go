package codegen

import (
	"fmt"

	"extra/internal/ir"
	"extra/internal/sim"
)

// frame8086 is the Intel 8086's frame: variables are 16-bit words from
// here on. Exotic operators use the bindings for movsb (Pascal sassign),
// scasb (Rigel index) and cmpsb (Pascal scompare), plus rep stosb for
// Clear. The 8086's 16-bit word makes every length-range constraint
// trivially satisfied, exactly as the paper notes in section 4.1.
const frame8086 = 0xF000

// load8086 brings an operand into a register (bx is the frame pointer
// scratch; callers must not pass reg = "bx" for variable operands).
func (e *emitter) load8086(reg string, v ir.Value) {
	if v.IsConst {
		e.emit(sim.Ins("mov", sim.R(reg), sim.I(v.Const&0xffff)))
		return
	}
	e.emit(
		sim.Ins("mov", sim.R("bx"), sim.I(e.varAddr[v.Var])),
		sim.Ins("movw", sim.R(reg), sim.M("bx")),
	)
}

// store8086 writes a register into a variable slot.
func (e *emitter) store8086(name, reg string) {
	e.emit(
		sim.Ins("mov", sim.R("bx"), sim.I(e.varAddr[name])),
		sim.Ins("movw", sim.M("bx"), sim.R(reg)),
	)
}

func (e *emitter) ins8086(ins ir.Ins) error {
	switch ins.Op {
	case ir.Data:
		e.dataSeg(ins.At, ins.Bytes)
		return nil
	case ir.Set:
		e.load8086("ax", ins.Args[0])
		e.store8086(ins.Dst, "ax")
		return nil
	case ir.Add, ir.Sub:
		e.load8086("ax", ins.Args[0])
		e.load8086("dx", ins.Args[1])
		mn := "add"
		if ins.Op == ir.Sub {
			mn = "sub"
		}
		e.emit(sim.Ins(mn, sim.R("ax"), sim.R("dx")))
		e.store8086(ins.Dst, "ax")
		return nil
	case ir.LoadB:
		e.load8086("si", ins.Args[0])
		e.emit(sim.Ins("mov", sim.R("ax"), sim.M("si")))
		e.store8086(ins.Dst, "ax")
		return nil
	case ir.StoreB:
		e.load8086("si", ins.Args[0])
		e.load8086("ax", ins.Args[1])
		e.emit(sim.Ins("mov", sim.M("si"), sim.R("ax")))
		return nil
	case ir.Print:
		e.load8086("ax", ins.Args[0])
		e.emit(sim.Ins("out", sim.R("ax")))
		return nil
	case ir.Label:
		e.emit(sim.Lbl(userLabel(ins.Dst)))
		return nil
	case ir.Goto:
		e.emit(sim.Ins("jmp", sim.L(userLabel(ins.Dst))))
		return nil
	case ir.IfZ, ir.IfNZ:
		e.load8086("ax", ins.Args[0])
		mn := "jz"
		if ins.Op == ir.IfNZ {
			mn = "jnz"
		}
		e.emit(
			sim.Ins("cmp", sim.R("ax"), sim.I(0)),
			sim.Ins(mn, sim.L(userLabel(ins.Dst))),
		)
		return nil
	case ir.Index:
		return e.index8086(ins)
	case ir.Move:
		return e.move8086(ins)
	case ir.Clear:
		return e.clear8086(ins)
	case ir.Compare:
		return e.compare8086(ins)
	case ir.Translate:
		return e.translate8086(ins)
	}
	return fmt.Errorf("codegen/i8086: unsupported op %s", ins.Op)
}

// index8086 emits the scasb/index binding's code — the hand translation in
// the paper's section 4.1 listing: operands in di/cx/al, the prologue
// augment saves the start address in bx and clears zf (mov si,0; cmp si,1),
// the rep prefix and cld realize the rf/df value constraints, and the
// epilogue computes the 1-based index or zero.
func (e *emitter) index8086(ins ir.Ins) error {
	if !e.opts.Exotic {
		return e.indexLoop8086(ins)
	}
	b := e.usableBinding("Intel 8086/scasb/index", "index")
	ok := b != nil &&
		constOK(b, "Src.Base", ins.Args[0], 0xffff) &&
		constOK(b, "Src.Length", ins.Args[1], 0xffff) &&
		constOK(b, "ch", ins.Args[2], 0xff)
	if !ok {
		return e.indexLoop8086(ins)
	}
	e.noteEmit("index", true)
	e.load8086("di", ins.Args[0])
	e.load8086("cx", ins.Args[1])
	e.load8086("al", ins.Args[2])
	notFound, done := e.label("Lnf"), e.label("Ldone")
	e.emit(
		sim.Ins("mov", sim.R("bx"), sim.R("di")), // save initial address
		sim.Ins("mov", sim.R("si"), sim.I(0)),    // clear si to use in resetting zf
		sim.Ins("cmp", sim.R("si"), sim.I(1)),    // reset zero flag zf
		sim.Ins("cld"),                           // reset direction flag df
		sim.Ins("repne_scasb"),                   // set rf, reset rfz; search string
		sim.Ins("jnz", sim.L(notFound)),
		sim.Ins("sub", sim.R("di"), sim.R("bx")), // compute index of char if found
		sim.Ins("jmp", sim.L(done)),
		sim.Lbl(notFound),
		sim.Ins("mov", sim.R("di"), sim.I(0)), // return zero if not found
		sim.Lbl(done),
	)
	e.store8086(ins.Dst, "di")
	return nil
}

// indexLoop8086 is the decomposition rule for string search. The sought
// character is masked to a byte, matching the operator's character type.
func (e *emitter) indexLoop8086(ins ir.Ins) error {
	e.noteEmit("index", false)
	e.load8086("si", ins.Args[0])
	e.load8086("cx", ins.Args[1])
	e.load8086("dx", ins.Args[2])
	e.emit(sim.Ins("and", sim.R("dx"), sim.I(0xff)))
	top, found, notFound, done := e.label("Lt"), e.label("Lf"), e.label("Ln"), e.label("Ld")
	e.emit(
		sim.Ins("mov", sim.R("di"), sim.I(0)), // running index
		sim.Lbl(top),
		sim.Ins("cmp", sim.R("di"), sim.R("cx")),
		sim.Ins("jz", sim.L(notFound)),
		sim.Ins("mov", sim.R("al"), sim.M("si")),
		sim.Ins("cmp", sim.R("al"), sim.R("dx")),
		sim.Ins("jz", sim.L(found)),
		sim.Ins("inc", sim.R("si")),
		sim.Ins("inc", sim.R("di")),
		sim.Ins("jmp", sim.L(top)),
		sim.Lbl(found),
		sim.Ins("inc", sim.R("di")), // 1-based
		sim.Ins("jmp", sim.L(done)),
		sim.Lbl(notFound),
		sim.Ins("mov", sim.R("di"), sim.I(0)),
		sim.Lbl(done),
	)
	e.store8086(ins.Dst, "di")
	return nil
}

// move8086 emits rep movsb from the movsb/sassign binding, or the
// decomposition loop.
func (e *emitter) move8086(ins ir.Ins) error {
	dst, src, n := ins.Args[0], ins.Args[1], ins.Args[2]
	if !e.opts.Exotic {
		return e.moveLoop8086(ins)
	}
	b := e.usableBinding("Intel 8086/movsb/sassign", "move")
	ok := b != nil &&
		constOK(b, "Src.Base", src, 0xffff) &&
		constOK(b, "Dst.Base", dst, 0xffff) &&
		constOK(b, "Len", n, 0xffff)
	if !ok {
		return e.moveLoop8086(ins)
	}
	e.noteEmit("move", true)
	e.load8086("si", src)
	e.load8086("di", dst)
	e.load8086("cx", n)
	e.emit(
		sim.Ins("cld"),
		sim.Ins("rep_movsb"),
	)
	return nil
}

func (e *emitter) moveLoop8086(ins ir.Ins) error {
	e.noteEmit("move", false)
	dst, src, n := ins.Args[0], ins.Args[1], ins.Args[2]
	e.load8086("si", src)
	e.load8086("di", dst)
	e.load8086("cx", n)
	top, done := e.label("Lt"), e.label("Ld")
	e.emit(
		sim.Ins("cmp", sim.R("cx"), sim.I(0)),
		sim.Ins("jz", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("mov", sim.R("al"), sim.M("si")),
		sim.Ins("mov", sim.M("di"), sim.R("al")),
		sim.Ins("inc", sim.R("si")),
		sim.Ins("inc", sim.R("di")),
		sim.Ins("loop", sim.L(top)),
		sim.Lbl(done),
	)
	return nil
}

// clear8086 emits rep stosb from the stosb/blkclr binding: the rf=1, df=0
// and al=0 value constraints become the rep prefix, cld and `mov al, 0`.
func (e *emitter) clear8086(ins ir.Ins) error {
	dst, n := ins.Args[0], ins.Args[1]
	if !e.opts.Exotic {
		return e.clearLoop8086(ins)
	}
	b := e.usableBinding("Intel 8086/stosb/blkclr", "clear")
	ok := b != nil &&
		constOK(b, "to", dst, 0xffff) &&
		constOK(b, "count", n, 0xffff)
	if !ok {
		return e.clearLoop8086(ins)
	}
	e.noteEmit("clear", true)
	e.load8086("di", dst)
	e.load8086("cx", n)
	e.emit(
		sim.Ins("mov", sim.R("al"), sim.I(0)), // al = 0 value constraint
		sim.Ins("cld"),                        // df = 0 value constraint
		sim.Ins("rep_stosb"),                  // rf = 1 value constraint
	)
	return nil
}

func (e *emitter) clearLoop8086(ins ir.Ins) error {
	e.noteEmit("clear", false)
	dst, n := ins.Args[0], ins.Args[1]
	e.load8086("di", dst)
	e.load8086("cx", n)
	top, done := e.label("Lt"), e.label("Ld")
	e.emit(
		sim.Ins("cmp", sim.R("cx"), sim.I(0)),
		sim.Ins("jz", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("mov", sim.M("di"), sim.I(0)),
		sim.Ins("inc", sim.R("di")),
		sim.Ins("loop", sim.L(top)),
		sim.Lbl(done),
	)
	return nil
}

// compare8086 emits repe cmpsb from the cmpsb/scompare binding: zf is
// preloaded (the prologue augment) so empty strings compare equal, and the
// epilogue maps zf to the operator's 1/0 result.
func (e *emitter) compare8086(ins ir.Ins) error {
	a, bb, n := ins.Args[0], ins.Args[1], ins.Args[2]
	if !e.opts.Exotic {
		return e.compareLoop8086(ins)
	}
	b := e.usableBinding("Intel 8086/cmpsb/scompare", "compare")
	ok := b != nil &&
		constOK(b, "A.Base", a, 0xffff) &&
		constOK(b, "B.Base", bb, 0xffff) &&
		constOK(b, "Len", n, 0xffff)
	if !ok {
		return e.compareLoop8086(ins)
	}
	e.noteEmit("compare", true)
	e.load8086("si", a)
	e.load8086("di", bb)
	e.load8086("cx", n)
	eq, done := e.label("Leq"), e.label("Ld")
	e.emit(
		sim.Ins("mov", sim.R("ax"), sim.I(0)),
		sim.Ins("cmp", sim.R("ax"), sim.I(0)), // preload zf = 1 (prologue augment)
		sim.Ins("cld"),
		sim.Ins("repe_cmpsb"),
		sim.Ins("jz", sim.L(eq)),
		sim.Ins("mov", sim.R("ax"), sim.I(0)),
		sim.Ins("jmp", sim.L(done)),
		sim.Lbl(eq),
		sim.Ins("mov", sim.R("ax"), sim.I(1)),
		sim.Lbl(done),
	)
	e.store8086(ins.Dst, "ax")
	return nil
}

func (e *emitter) compareLoop8086(ins ir.Ins) error {
	e.noteEmit("compare", false)
	a, bb, n := ins.Args[0], ins.Args[1], ins.Args[2]
	e.load8086("si", a)
	e.load8086("di", bb)
	e.load8086("cx", n)
	top, differ, done := e.label("Lt"), e.label("Lx"), e.label("Ld")
	e.emit(
		sim.Ins("mov", sim.R("ax"), sim.I(1)),
		sim.Ins("cmp", sim.R("cx"), sim.I(0)),
		sim.Ins("jz", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("mov", sim.R("al"), sim.M("si")),
		sim.Ins("mov", sim.R("dx"), sim.M("di")),
		sim.Ins("cmp", sim.R("al"), sim.R("dx")),
		sim.Ins("jnz", sim.L(differ)),
		sim.Ins("inc", sim.R("si")),
		sim.Ins("inc", sim.R("di")),
		sim.Ins("loop", sim.L(top)),
		sim.Ins("mov", sim.R("ax"), sim.I(1)),
		sim.Ins("jmp", sim.L(done)),
		sim.Lbl(differ),
		sim.Ins("mov", sim.R("ax"), sim.I(0)),
		sim.Lbl(done),
	)
	e.store8086(ins.Dst, "ax")
	return nil
}

// translate8086 translates a string through a table. With exotic emission
// the per-byte body is the 8086 xlat instruction (table base in its
// dedicated register bx); otherwise a plain indexed load.
func (e *emitter) translate8086(ins ir.Ins) error {
	base, table, n := ins.Args[0], ins.Args[1], ins.Args[2]
	e.load8086("si", base)
	e.load8086("cx", n)
	top, done := e.label("Lt"), e.label("Ld")
	if e.opts.Exotic {
		e.noteEmit("translate", true)
		// bx is loaded last: variable loads themselves go through bx.
		e.load8086("bx", table)
		e.emit(
			sim.Ins("cmp", sim.R("cx"), sim.I(0)),
			sim.Ins("jz", sim.L(done)),
			sim.Lbl(top),
			sim.Ins("mov", sim.R("al"), sim.M("si")),
			sim.Ins("xlat"), // al <- Mb[bx + al]
			sim.Ins("mov", sim.M("si"), sim.R("al")),
			sim.Ins("inc", sim.R("si")),
			sim.Ins("loop", sim.L(top)),
			sim.Lbl(done),
		)
		return nil
	}
	e.noteEmit("translate", false)
	e.load8086("dx", table)
	e.emit(
		sim.Ins("cmp", sim.R("cx"), sim.I(0)),
		sim.Ins("jz", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("mov", sim.R("al"), sim.M("si")),
		sim.Ins("mov", sim.R("di"), sim.R("dx")),
		sim.Ins("add", sim.R("di"), sim.R("al")),
		sim.Ins("mov", sim.R("al"), sim.M("di")),
		sim.Ins("mov", sim.M("si"), sim.R("al")),
		sim.Ins("inc", sim.R("si")),
		sim.Ins("loop", sim.L(top)),
		sim.Lbl(done),
	)
	return nil
}

// clobbers8086 lists the registers an instruction may write, for the
// register-preference pass.
func clobbers8086(in sim.Instr) []string {
	switch in.Mn {
	case "mov", "movw", "add", "sub", "and", "inc", "dec":
		if len(in.Ops) > 0 && in.Ops[0].Kind == sim.KReg {
			return []string{in.Ops[0].Reg}
		}
		return nil
	case "xlat":
		return []string{"al"}
	case "rep_movsb":
		return []string{"si", "di", "cx"}
	case "rep_stosb":
		return []string{"di", "cx"}
	case "repne_scasb":
		return []string{"di", "cx"}
	case "repe_cmpsb":
		return []string{"si", "di", "cx"}
	case "cmp", "cld", "std", "out", "nop", "hlt":
		return nil
	case "loop":
		return []string{"cx"}
	}
	// Unknown instructions clobber everything (handled by the pass).
	return nil
}
