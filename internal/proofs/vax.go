package proofs

import (
	"math/rand"

	"extra/internal/core"
	"extra/internal/interp"
)

// Movc3PC2 binds the VAX-11 movc3 to the Berkeley Pascal runtime (PC2)
// block copy. Both guard against overlapping operands by choosing the move
// direction, so the descriptions align after surface rewrites — the
// shortest analysis in the paper's Table 2 (21 steps).
func Movc3PC2() *Analysis {
	return &Analysis{
		Machine: "VAX-11", Instruction: "movc3",
		Language: "PC2", Operation: "block copy",
		Operator: "blkcpy", PaperSteps: 21,
		Script: func(s *core.Session) error {
			// The operator produces no value; movc3's register results are
			// unused.
			if err := apply(s, core.InsSide, "augment.epilogue", nil); err != nil {
				return err
			}
			// blkcpy is C-flavored: `to > from` and `count <= 0` tests.
			if err := applyAtExpr(s, core.OpSide, "rewrite.commute.rel", "to > from"); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.OpSide, "rewrite.eq.le.zero", "count <= 0"); err != nil {
				return err
			}
			return applyAtExpr(s, core.OpSide, "rewrite.eq.le.zero", "count <= 0")
		},
		Gen: func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
			// Overlap is allowed: both sides guard it the same way.
			n := rng.Intn(12)
			src := uint64(64 + rng.Intn(32))
			dst := uint64(64 + rng.Intn(32))
			drawString(rng, mem, src, n)
			return append(in, uint64(n), src, dst)
		},
	}
}

// Movc5PC2 binds a simplification of the VAX-11 movc5 — source length fixed
// at zero, fill character fixed at zero — to the PC2 block clear. Fixing
// the source length makes the move phase a loop that exits on entry.
func Movc5PC2() *Analysis {
	return &Analysis{
		Machine: "VAX-11", Instruction: "movc5",
		Language: "PC2", Operation: "block clear",
		Operator: "blkclr", PaperSteps: 26,
		Script: func(s *core.Session) error {
			// The operator produces no value; drop movc5's register results
			// first so the fixed operands fall dead.
			if err := apply(s, core.InsSide, "augment.epilogue", nil); err != nil {
				return err
			}
			// srclen = 0: the move phase never runs. The fixed operand is
			// consumed by deleting the loop, after which its initialization
			// and declaration are dead.
			if err := apply(s, core.InsSide, "constraint.fix", nil,
				"operand", "srclen", "value", "0"); err != nil {
				return err
			}
			if err := applyAtStmt(s, core.InsSide, "loop.delete.dead", "repeat"); err != nil {
				return err
			}
			if err := applyAtStmt(s, core.InsSide, "global.dead.assign", "srclen <- 0;"); err != nil {
				return err
			}
			if err := apply(s, core.InsSide, "global.dead.decl", nil, "var", "srclen"); err != nil {
				return err
			}
			// src = 0: with no move phase the source operand is unused; its
			// value is immaterial and the generator pins it to zero.
			if err := apply(s, core.InsSide, "constraint.fix", nil,
				"operand", "src", "value", "0"); err != nil {
				return err
			}
			if err := applyAtStmt(s, core.InsSide, "global.dead.assign", "src <- 0;"); err != nil {
				return err
			}
			if err := apply(s, core.InsSide, "global.dead.decl", nil, "var", "src"); err != nil {
				return err
			}
			// fill = 0: the fill loop stores zero bytes, which is blkclr.
			return s.FixOperand(core.InsSide, "fill", 0)
		},
		Gen: func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
			n := rng.Intn(12)
			dst := uint64(64 + rng.Intn(32))
			drawString(rng, mem, dst, n+2)
			return append(in, uint64(n), dst)
		},
	}
}

// LoccRigel binds the VAX-11 locc (locate character) to the Rigel index
// operator: locc returns the address of the located character, so the
// epilogue computes the 1-based index from the saved start address (the
// paper's example of why augments are needed, section 2).
func LoccRigel() *Analysis {
	return &Analysis{
		Machine: "VAX-11", Instruction: "locc",
		Language: "Rigel", Operation: "string search",
		Operator: "index", PaperSteps: 33,
		Script: func(s *core.Session) error {
			if err := loccInsSide(s); err != nil {
				return err
			}
			// locc tests the string byte against the sought character.
			if err := applyAtExpr(s, core.InsSide, "rewrite.commute.rel", "t0 = char"); err != nil {
				return err
			}
			// Operator: expose the read, then move the position step past
			// the found exit (locc leaves r1 pointing at the character, not
			// after it), compensating the found branch.
			if err := s.InlineCalls(core.OpSide); err != nil {
				return err
			}
			if err := applyAtStmt(s, core.OpSide, "loop.move.increment",
				"Src.Index <- Src.Index + 1;", "dir", "down"); err != nil {
				return err
			}
			return apply(s, core.OpSide, "input.reorder", nil,
				"order", "ch,Src.Length,Src.Base")
		},
		Gen: loccGen(),
	}
}

// LoccCLU binds locc to CLU's string$indexc; the up-counted CLU description
// already exits before the position step, so the analysis is slightly
// shorter than Rigel's (the paper reports 32 vs 33).
func LoccCLU() *Analysis {
	return &Analysis{
		Machine: "VAX-11", Instruction: "locc",
		Language: "CLU", Operation: "string search",
		Operator: "indexc", PaperSteps: 32,
		Script: func(s *core.Session) error {
			if err := loccInsSide(s); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.OpSide, "move.hoist.expr", "Mb[base + i]",
				"temp", "t0", "width", "8"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.OpSide, "loop.countdown.intro",
				"i", "i", "n", "limit", "len", "limit"); err != nil {
				return err
			}
			return apply(s, core.OpSide, "input.reorder", nil, "order", "c,limit,base")
		},
		Gen: loccGen(),
	}
}

// loccInsSide saves the start address, rewrites the scan as base+index, and
// computes the 1-based index in the epilogue.
func loccInsSide(s *core.Session) error {
	if err := apply(s, core.InsSide, "augment.prologue", nil,
		"stmt", "temp <- r1;", "decl", "temp", "width", "32"); err != nil {
		return err
	}
	if err := apply(s, core.InsSide, "augment.epilogue", nil,
		"stmts", "if r0 = 0 then output (0); else output (r1 - temp + 1); end_if;"); err != nil {
		return err
	}
	if err := applyAtExpr(s, core.InsSide, "move.hoist.expr", "Mb[r1]",
		"temp", "t0", "width", "8"); err != nil {
		return err
	}
	if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
		"p", "r1", "i", "i1", "width", "32"); err != nil {
		return err
	}
	if err := apply(s, core.InsSide, "global.copy.prop", nil, "var", "temp"); err != nil {
		return err
	}
	if err := applyAtStmt(s, core.InsSide, "global.dead.assign", "temp <- r1;"); err != nil {
		return err
	}
	if err := apply(s, core.InsSide, "global.dead.decl", nil, "var", "temp"); err != nil {
		return err
	}
	return applyAtExpr(s, core.InsSide, "rewrite.addsub.cancel", "r1 + i1 - r1")
}

// loccGen generates (char, length, base) operands matching locc's order.
func loccGen() core.InputGen {
	return func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
		n := rng.Intn(12)
		base := uint64(64 + rng.Intn(64))
		ch := uint64('a' + rng.Intn(4))
		drawString(rng, mem, base, n)
		return append(in, ch, uint64(n), base)
	}
}

// Cmpc3Pascal binds the VAX-11 cmpc3 string comparison to the Pascal string
// equality operator: cmpc3 leaves the count of unexamined bytes in r0, so
// the epilogue maps r0 = 0 to "equal".
func Cmpc3Pascal() *Analysis {
	return &Analysis{
		Machine: "VAX-11", Instruction: "cmpc3",
		Language: "Pascal", Operation: "string compare",
		Operator: "scompare", PaperSteps: 47,
		Script: func(s *core.Session) error {
			if err := apply(s, core.InsSide, "augment.epilogue", nil,
				"stmts", "if r0 = 0 then output (1); else output (0); end_if;"); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.InsSide, "move.hoist.expr", "Mb[r1]",
				"temp", "t0", "width", "8"); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.InsSide, "move.hoist.expr", "Mb[r3]",
				"temp", "t1", "width", "8"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
				"p", "r1", "i", "i1", "width", "32"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
				"p", "r3", "i", "i2", "width", "32"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.merge",
				"keep", "i1", "drop", "i2"); err != nil {
				return err
			}
			if err := s.InlineCalls(core.OpSide); err != nil {
				return err
			}
			return apply(s, core.OpSide, "input.reorder", nil,
				"order", "Len,A.Base,B.Base")
		},
		Gen: func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
			n := rng.Intn(10)
			a := uint64(64 + rng.Intn(16))
			b := uint64(160 + rng.Intn(16))
			compareImage(rng, mem, a, b, n)
			return append(in, uint64(n), a, b)
		},
	}
}
