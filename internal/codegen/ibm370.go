package codegen

import (
	"fmt"

	"extra/internal/ir"
	"extra/internal/sim"
)

// frame370 is the IBM 370's frame: variables are 32-bit words from here
// on. Exotic operators use the bindings for mvc (Pascal sassign), clc
// (Pascal scompare) and tr (xlate), whose coding constraint (the length
// field holds Len-1) and range constraint (1 <= Len <= 256) are applied
// here: constant moves outside the range are rewritten into consecutive
// mvcs of at most 256 bytes; variable lengths use a counted chunk loop (the
// register-length form via the EX idiom). Clear uses the classic
// overlapping-mvc idiom: store one zero byte, then propagate it with a
// forward mvc over the overlapping region. String search decomposes (this
// reproduction proved no 370 binding for it; the hardware's trt would be a
// future analysis).
const frame370 = 0xF000

func (e *emitter) load370(reg string, v ir.Value) {
	if v.IsConst {
		e.emit(sim.Ins("la", sim.R(reg), sim.I(v.Const&0xffffffff)))
		return
	}
	e.emit(
		sim.Ins("la", sim.R("r15"), sim.I(e.varAddr[v.Var])),
		sim.Ins("l", sim.R(reg), sim.M("r15")),
	)
}

func (e *emitter) store370(name, reg string) {
	e.emit(
		sim.Ins("la", sim.R("r15"), sim.I(e.varAddr[name])),
		sim.Ins("st", sim.R(reg), sim.M("r15")),
	)
}

func (e *emitter) ins370(ins ir.Ins) error {
	switch ins.Op {
	case ir.Data:
		e.dataSeg(ins.At, ins.Bytes)
		return nil
	case ir.Set:
		e.load370("r2", ins.Args[0])
		e.store370(ins.Dst, "r2")
		return nil
	case ir.Add, ir.Sub:
		e.load370("r2", ins.Args[0])
		e.load370("r3", ins.Args[1])
		mn := "ar"
		if ins.Op == ir.Sub {
			mn = "sr"
		}
		e.emit(sim.Ins(mn, sim.R("r2"), sim.R("r3")))
		e.store370(ins.Dst, "r2")
		return nil
	case ir.LoadB:
		e.load370("r2", ins.Args[0])
		e.emit(sim.Ins("ic", sim.R("r3"), sim.M("r2")))
		e.store370(ins.Dst, "r3")
		return nil
	case ir.StoreB:
		e.load370("r2", ins.Args[0])
		e.load370("r3", ins.Args[1])
		e.emit(sim.Ins("stc", sim.R("r3"), sim.M("r2")))
		return nil
	case ir.Print:
		e.load370("r2", ins.Args[0])
		e.emit(sim.Ins("out", sim.R("r2")))
		return nil
	case ir.Label:
		e.emit(sim.Lbl(userLabel(ins.Dst)))
		return nil
	case ir.Goto:
		e.emit(sim.Ins("b", sim.L(userLabel(ins.Dst))))
		return nil
	case ir.IfZ, ir.IfNZ:
		e.load370("r2", ins.Args[0])
		mn := "be"
		if ins.Op == ir.IfNZ {
			mn = "bne"
		}
		e.emit(
			sim.Ins("cr", sim.R("r2"), sim.I(0)),
			sim.Ins(mn, sim.L(userLabel(ins.Dst))),
		)
		return nil
	case ir.Index:
		return e.indexLoop370(ins)
	case ir.Move:
		return e.move370(ins)
	case ir.Clear:
		return e.clear370(ins)
	case ir.Compare:
		return e.compare370(ins)
	case ir.Translate:
		return e.translate370(ins)
	}
	return fmt.Errorf("codegen/ibm370: unsupported op %s", ins.Op)
}

// move370 applies the mvc/sassign binding. The binding's offset constraint
// says the field holds Len-1, and its range constraint says 1 <= Len <=
// 256: both are read off the binding and realized in the emitted code.
func (e *emitter) move370(ins ir.Ins) error {
	dst, src, n := ins.Args[0], ins.Args[1], ins.Args[2]
	if !e.opts.Exotic {
		return e.moveLoop370(ins)
	}
	b := e.usableBinding("IBM 370/mvc/sassign", "move")
	if b == nil {
		return e.moveLoop370(ins)
	}
	delta := offsetFor(b, "Len2")
	min, max, _ := rangeFor(b, "Len2")
	if n.IsConst && n.Const >= min && n.Const <= max {
		e.noteEmit("move", true)
		e.load370("r2", dst)
		e.load370("r3", src)
		e.emit(sim.Ins("mvc", sim.I(uint64(int64(n.Const)+delta)), sim.M("r2"), sim.M("r3")))
		return nil
	}
	if n.IsConst && n.Const == 0 {
		return nil // nothing to move; mvc cannot move zero bytes
	}
	if !e.opts.Rewriting {
		return e.moveLoop370(ins)
	}
	e.noteEmit("move", true)
	// Rewriting rule: consecutive mvcs of at most 256 bytes. A constant
	// length unrolls statically; a variable length runs the chunk loop
	// with the length in a register (the EX idiom).
	if n.IsConst {
		e.load370("r2", dst)
		e.load370("r3", src)
		remaining := n.Const
		for remaining > 0 {
			chunk := remaining
			if chunk > 256 {
				chunk = 256
			}
			e.emit(
				sim.Ins("mvc", sim.I(uint64(int64(chunk)+delta)), sim.M("r2"), sim.M("r3")),
				sim.Ins("la", sim.R("r2"), sim.MD("r2", int64(chunk))),
				sim.Ins("la", sim.R("r3"), sim.MD("r3", int64(chunk))),
			)
			remaining -= chunk
		}
		return nil
	}
	e.load370("r2", dst)
	e.load370("r3", src)
	e.load370("r4", n)
	top, last, done := e.label("Lt"), e.label("Ll"), e.label("Ld")
	e.emit(
		sim.Lbl(top),
		sim.Ins("cr", sim.R("r4"), sim.I(257)),
		sim.Ins("bl", sim.L(last)),
		sim.Ins("mvc", sim.I(255), sim.M("r2"), sim.M("r3")), // 256 bytes
		sim.Ins("la", sim.R("r2"), sim.MD("r2", 256)),
		sim.Ins("la", sim.R("r3"), sim.MD("r3", 256)),
		sim.Ins("sr", sim.R("r4"), sim.I(256)),
		sim.Ins("b", sim.L(top)),
		sim.Lbl(last),
		sim.Ins("cr", sim.R("r4"), sim.I(0)),
		sim.Ins("be", sim.L(done)),
		// Encode the register length minus one, per the coding constraint.
		sim.Ins("sr", sim.R("r4"), sim.I(1)),
		sim.Ins("mvc", sim.R("r4"), sim.M("r2"), sim.M("r3")),
		sim.Lbl(done),
	)
	return nil
}

func (e *emitter) moveLoop370(ins ir.Ins) error {
	e.noteEmit("move", false)
	dst, src, n := ins.Args[0], ins.Args[1], ins.Args[2]
	e.load370("r2", dst)
	e.load370("r3", src)
	e.load370("r4", n)
	top, done := e.label("Lt"), e.label("Ld")
	e.emit(
		sim.Ins("cr", sim.R("r4"), sim.I(0)),
		sim.Ins("be", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("ic", sim.R("r5"), sim.M("r3")),
		sim.Ins("stc", sim.R("r5"), sim.M("r2")),
		sim.Ins("la", sim.R("r2"), sim.MD("r2", 1)),
		sim.Ins("la", sim.R("r3"), sim.MD("r3", 1)),
		sim.Ins("bct", sim.R("r4"), sim.L(top)),
		sim.Lbl(done),
	)
	return nil
}

// clear370 uses the classic overlapping-mvc idiom: mvi a zero into the
// first byte, then a forward mvc shifted by one propagates it across the
// field. Only valid because the 370 mvc moves strictly left to right; the
// analysis of that propagation (an overlap the mvc/sassign binding
// excludes) is left as future work, so the idiom is emitted from the
// hand-written rule the paper's compilers also used.
func (e *emitter) clear370(ins ir.Ins) error {
	dst, n := ins.Args[0], ins.Args[1]
	if !e.opts.Exotic {
		return e.clearLoop370(ins)
	}
	if n.IsConst && n.Const == 0 {
		return nil
	}
	if n.IsConst && n.Const <= 257 {
		e.noteEmit("clear", true)
		e.load370("r2", dst)
		e.emit(sim.Ins("mvi", sim.M("r2"), sim.I(0)))
		if n.Const > 1 {
			// mvc dst+1(len-1), dst: propagate the zero.
			e.emit(
				sim.Ins("la", sim.R("r3"), sim.MD("r2", 1)),
				sim.Ins("mvc", sim.I(n.Const-2), sim.M("r3"), sim.M("r2")),
			)
		}
		return nil
	}
	e.noteEmit("clear", true)
	// Larger or variable clears: zero the first byte then propagate in
	// chunks with the overlap running one byte behind.
	e.load370("r2", dst)
	e.load370("r4", n)
	top, last, done := e.label("Lt"), e.label("Ll"), e.label("Ld")
	e.emit(
		sim.Ins("cr", sim.R("r4"), sim.I(0)),
		sim.Ins("be", sim.L(done)),
		sim.Ins("mvi", sim.M("r2"), sim.I(0)),
		sim.Ins("sr", sim.R("r4"), sim.I(1)),
		sim.Ins("la", sim.R("r3"), sim.MD("r2", 1)),
		sim.Lbl(top),
		sim.Ins("cr", sim.R("r4"), sim.I(257)),
		sim.Ins("bl", sim.L(last)),
		sim.Ins("mvc", sim.I(255), sim.M("r3"), sim.M("r2")),
		sim.Ins("la", sim.R("r2"), sim.MD("r2", 256)),
		sim.Ins("la", sim.R("r3"), sim.MD("r3", 256)),
		sim.Ins("sr", sim.R("r4"), sim.I(256)),
		sim.Ins("b", sim.L(top)),
		sim.Lbl(last),
		sim.Ins("cr", sim.R("r4"), sim.I(0)),
		sim.Ins("be", sim.L(done)),
		sim.Ins("sr", sim.R("r4"), sim.I(1)),
		sim.Ins("mvc", sim.R("r4"), sim.M("r3"), sim.M("r2")),
		sim.Lbl(done),
	)
	return nil
}

func (e *emitter) clearLoop370(ins ir.Ins) error {
	e.noteEmit("clear", false)
	dst, n := ins.Args[0], ins.Args[1]
	e.load370("r2", dst)
	e.load370("r4", n)
	e.emit(sim.Ins("la", sim.R("r5"), sim.I(0)))
	top, done := e.label("Lt"), e.label("Ld")
	e.emit(
		sim.Ins("cr", sim.R("r4"), sim.I(0)),
		sim.Ins("be", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("stc", sim.R("r5"), sim.M("r2")),
		sim.Ins("la", sim.R("r2"), sim.MD("r2", 1)),
		sim.Ins("bct", sim.R("r4"), sim.L(top)),
		sim.Lbl(done),
	)
	return nil
}

// compare370 emits clc from the clc/scompare binding: the coding constraint
// (field holds Len-1) and the 1..256 range come off the binding, and the
// condition code maps to the operator's 1/0 result via the epilogue.
func (e *emitter) compare370(ins ir.Ins) error {
	a, bb, n := ins.Args[0], ins.Args[1], ins.Args[2]
	if !e.opts.Exotic {
		return e.compareLoop370(ins)
	}
	b := e.usableBinding("IBM 370/clc/scompare", "compare")
	if b == nil {
		return e.compareLoop370(ins)
	}
	delta := offsetFor(b, "LenC")
	min, max, _ := rangeFor(b, "LenC")
	if e.opts.Exotic && n.IsConst && n.Const >= min && n.Const <= max {
		e.noteEmit("compare", true)
		e.load370("r2", a)
		e.load370("r3", bb)
		eq, done := e.label("Le"), e.label("Ld")
		e.emit(
			sim.Ins("clc", sim.I(uint64(int64(n.Const)+delta)), sim.M("r2"), sim.M("r3")),
			sim.Ins("be", sim.L(eq)),
			sim.Ins("la", sim.R("r5"), sim.I(0)),
			sim.Ins("b", sim.L(done)),
			sim.Lbl(eq),
			sim.Ins("la", sim.R("r5"), sim.I(1)),
			sim.Lbl(done),
		)
		e.store370(ins.Dst, "r5")
		return nil
	}
	if e.opts.Exotic && n.IsConst && n.Const == 0 {
		// Zero-length strings compare equal; clc cannot compare zero bytes.
		e.emit(sim.Ins("la", sim.R("r5"), sim.I(1)))
		e.store370(ins.Dst, "r5")
		return nil
	}
	return e.compareLoop370(ins)
}

func (e *emitter) compareLoop370(ins ir.Ins) error {
	e.noteEmit("compare", false)
	a, bb, n := ins.Args[0], ins.Args[1], ins.Args[2]
	e.load370("r2", a)
	e.load370("r3", bb)
	e.load370("r4", n)
	top, differ, done := e.label("Lt"), e.label("Lx"), e.label("Ld")
	e.emit(
		sim.Ins("la", sim.R("r5"), sim.I(1)),
		sim.Ins("cr", sim.R("r4"), sim.I(0)),
		sim.Ins("be", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("ic", sim.R("r6"), sim.M("r2")),
		sim.Ins("ic", sim.R("r7"), sim.M("r3")),
		sim.Ins("cr", sim.R("r6"), sim.R("r7")),
		sim.Ins("bne", sim.L(differ)),
		sim.Ins("la", sim.R("r2"), sim.MD("r2", 1)),
		sim.Ins("la", sim.R("r3"), sim.MD("r3", 1)),
		sim.Ins("bct", sim.R("r4"), sim.L(top)),
		sim.Ins("b", sim.L(done)),
		sim.Lbl(differ),
		sim.Ins("la", sim.R("r5"), sim.I(0)),
		sim.Lbl(done),
	)
	e.store370(ins.Dst, "r5")
	return nil
}

// indexLoop370 decomposes string search (no 370 search binding was proved;
// trt is future work).
func (e *emitter) indexLoop370(ins ir.Ins) error {
	e.noteEmit("index", false)
	base, n, ch := ins.Args[0], ins.Args[1], ins.Args[2]
	e.load370("r2", base)
	e.load370("r4", n)
	e.load370("r5", ch)
	e.emit(
		sim.Ins("la", sim.R("r8"), sim.I(0xff)),
		sim.Ins("nr", sim.R("r5"), sim.R("r8")), // character type
	)
	top, found, notFound, done := e.label("Lt"), e.label("Lf"), e.label("Ln"), e.label("Ld")
	e.emit(
		sim.Ins("la", sim.R("r6"), sim.I(0)), // running index
		sim.Lbl(top),
		sim.Ins("cr", sim.R("r6"), sim.R("r4")),
		sim.Ins("be", sim.L(notFound)),
		sim.Ins("ic", sim.R("r7"), sim.M("r2")),
		sim.Ins("cr", sim.R("r7"), sim.R("r5")),
		sim.Ins("be", sim.L(found)),
		sim.Ins("la", sim.R("r2"), sim.MD("r2", 1)),
		sim.Ins("la", sim.R("r6"), sim.MD("r6", 1)),
		sim.Ins("b", sim.L(top)),
		sim.Lbl(found),
		sim.Ins("la", sim.R("r6"), sim.MD("r6", 1)),
		sim.Ins("b", sim.L(done)),
		sim.Lbl(notFound),
		sim.Ins("la", sim.R("r6"), sim.I(0)),
		sim.Lbl(done),
	)
	e.store370(ins.Dst, "r6")
	return nil
}

// translate370 applies the tr/xlate binding: constant lengths within the
// 256-byte field emit one tr with the coding constraint applied; longer or
// variable lengths chunk under the rewriting rule; otherwise a byte loop.
func (e *emitter) translate370(ins ir.Ins) error {
	base, table, n := ins.Args[0], ins.Args[1], ins.Args[2]
	if !e.opts.Exotic {
		return e.translateLoop370(ins)
	}
	b := e.usableBinding("IBM 370/tr/xlate", "translate")
	if b == nil {
		return e.translateLoop370(ins)
	}
	delta := offsetFor(b, "LenT")
	min, max, _ := rangeFor(b, "LenT")
	if n.IsConst && n.Const >= min && n.Const <= max {
		e.noteEmit("translate", true)
		e.load370("r2", base)
		e.load370("r3", table)
		e.emit(sim.Ins("tr", sim.I(uint64(int64(n.Const)+delta)), sim.M("r2"), sim.M("r3")))
		return nil
	}
	if n.IsConst && n.Const == 0 {
		return nil
	}
	if !e.opts.Rewriting {
		return e.translateLoop370(ins)
	}
	e.noteEmit("translate", true)
	e.load370("r2", base)
	e.load370("r3", table)
	e.load370("r4", n)
	top, last, done := e.label("Lt"), e.label("Ll"), e.label("Ld")
	e.emit(
		sim.Lbl(top),
		sim.Ins("cr", sim.R("r4"), sim.I(257)),
		sim.Ins("bl", sim.L(last)),
		sim.Ins("tr", sim.I(255), sim.M("r2"), sim.M("r3")),
		sim.Ins("la", sim.R("r2"), sim.MD("r2", 256)),
		sim.Ins("sr", sim.R("r4"), sim.I(256)),
		sim.Ins("b", sim.L(top)),
		sim.Lbl(last),
		sim.Ins("cr", sim.R("r4"), sim.I(0)),
		sim.Ins("be", sim.L(done)),
		sim.Ins("sr", sim.R("r4"), sim.I(1)),
		sim.Ins("tr", sim.R("r4"), sim.M("r2"), sim.M("r3")),
		sim.Lbl(done),
	)
	return nil
}

func (e *emitter) translateLoop370(ins ir.Ins) error {
	e.noteEmit("translate", false)
	base, table, n := ins.Args[0], ins.Args[1], ins.Args[2]
	e.load370("r2", base)
	e.load370("r3", table)
	e.load370("r4", n)
	top, done := e.label("Lt"), e.label("Ld")
	e.emit(
		sim.Ins("cr", sim.R("r4"), sim.I(0)),
		sim.Ins("be", sim.L(done)),
		sim.Lbl(top),
		sim.Ins("ic", sim.R("r5"), sim.M("r2")),
		sim.Ins("ar", sim.R("r5"), sim.R("r3")),
		sim.Ins("ic", sim.R("r6"), sim.M("r5")),
		sim.Ins("stc", sim.R("r6"), sim.M("r2")),
		sim.Ins("la", sim.R("r2"), sim.MD("r2", 1)),
		sim.Ins("bct", sim.R("r4"), sim.L(top)),
		sim.Lbl(done),
	)
	return nil
}

// clobbers370 lists registers an instruction may write.
func clobbers370(in sim.Instr) []string {
	switch in.Mn {
	case "la", "lr", "l", "ic", "ar", "sr", "nr":
		if len(in.Ops) > 0 && in.Ops[0].Kind == sim.KReg {
			return []string{in.Ops[0].Reg}
		}
		return nil
	case "bct":
		return []string{in.Ops[0].Reg}
	case "st", "stc", "cr", "b", "be", "bne", "bl", "bnl", "mvc", "mvi", "clc", "out", "nop", "hlt":
		return nil
	}
	return nil
}
