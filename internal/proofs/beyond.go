package proofs

import (
	"math/rand"

	"extra/internal/core"
	"extra/internal/interp"
)

// StosbBlkclr binds the Intel 8086 stosb (with the rep prefix and the fill
// byte fixed at zero) to the PC2 block clear — an analysis beyond the
// paper's Table 2, in the same style as its movc5/blkclr row, which lets
// the code generator emit `rep stosb` from a proved binding rather than a
// hand rule.
func StosbBlkclr() *Analysis {
	return &Analysis{
		Machine: "Intel 8086", Instruction: "stosb",
		Language: "PC2", Operation: "block clear",
		Operator: "blkclr", PaperSteps: 0, // beyond Table 2
		Script: func(s *core.Session) error {
			if err := s.FixOperand(core.InsSide, "rf", 1); err != nil {
				return err
			}
			if err := s.FixOperand(core.InsSide, "df", 0); err != nil {
				return err
			}
			// The fill byte is the value constraint al = 0, realized by
			// `mov al, 0` in generated code.
			if err := s.FixOperand(core.InsSide, "al", 0); err != nil {
				return err
			}
			if err := apply(s, core.InsSide, "augment.epilogue", nil); err != nil {
				return err
			}
			if err := sinkToLoopBottom(s, core.InsSide, 1); err != nil {
				return err
			}
			return apply(s, core.OpSide, "input.reorder", nil, "order", "to,count")
		},
		Gen: func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
			n := rng.Intn(12)
			dst := uint64(64 + rng.Intn(32))
			drawString(rng, mem, dst, n+2)
			return append(in, dst, uint64(n))
		},
	}
}

// LoccPL1 binds the VAX-11 locc to the PL/1 index builtin — the paper's
// own section 2 example: "the PL/1 index operator ... returns the index of
// the character in the string, and not the address in memory. Thus, code
// must be added to locc to compute the index from the address." Both
// descriptions are pointer-style, so the whole analysis is the two
// augments: save the start address, convert address to index.
func LoccPL1() *Analysis {
	return &Analysis{
		Machine: "VAX-11", Instruction: "locc",
		Language: "PL/1", Operation: "string search",
		Operator: "pindex", PaperSteps: 0, // the section 2 discussion, not Table 2
		Script: func(s *core.Session) error {
			if err := apply(s, core.InsSide, "augment.prologue", nil,
				"stmt", "temp <- r1;", "decl", "temp", "width", "32"); err != nil {
				return err
			}
			return apply(s, core.InsSide, "augment.epilogue", nil,
				"stmts", "if r0 = 0 then output (0); else output (r1 - temp + 1); end_if;")
		},
		Gen: func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
			n := rng.Intn(12)
			base := uint64(64 + rng.Intn(64))
			ch := uint64('a' + rng.Intn(4))
			drawString(rng, mem, base, n)
			return append(in, ch, uint64(n), base)
		},
	}
}

// ClcScompare binds the IBM 370 clc to the Pascal string equality
// comparison. Like mvc, clc's 8-bit length field encodes the byte count
// minus one, so the analysis re-discovers the coding constraint and the
// 1..256 range; the condition code (set on the first mismatch) plays the
// role of the common form's mismatch witness.
func ClcScompare() *Analysis {
	return &Analysis{
		Machine: "IBM 370", Instruction: "clc",
		Language: "Pascal", Operation: "string compare",
		Operator: "scompare", PaperSteps: 0, // beyond Table 2
		Script: func(s *core.Session) error {
			// The operator's result is 1 for equal; clc's condition code is
			// 1 for a mismatch.
			if err := apply(s, core.InsSide, "augment.epilogue", nil,
				"stmts", "if cc then output (0); else output (1); end_if;"); err != nil {
				return err
			}
			// The coding constraint: the field holds Len-1.
			if err := apply(s, core.InsSide, "constraint.offset", nil,
				"operand", "len", "abstract", "LenC", "delta", "-1"); err != nil {
				return err
			}
			// Bring the preload next to the loop, then integrate it.
			if err := applyAtStmt(s, core.InsSide, "move.swap", "len <- LenC - 1;"); err != nil {
				return err
			}
			if err := applyAtStmt(s, core.InsSide, "loop.dowhile.count", "repeat",
				"k", "len", "n", "LenC"); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.InsSide, "move.hoist.expr", "Mb[a1]",
				"temp", "t0", "width", "8"); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.InsSide, "move.hoist.expr", "Mb[a2]",
				"temp", "t1", "width", "8"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
				"p", "a1", "i", "i1", "width", "32"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
				"p", "a2", "i", "i2", "width", "32"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.merge",
				"keep", "i1", "drop", "i2"); err != nil {
				return err
			}
			// Prologue order: index init first, like the operator's.
			if err := applyAtStmt(s, core.InsSide, "move.swap", "cc <- 0;"); err != nil {
				return err
			}
			// Operator side: expose the reads, witness the mismatch exit.
			if err := s.InlineCalls(core.OpSide); err != nil {
				return err
			}
			return applyAtStmt(s, core.OpSide, "loop.exit.witness", "exit_when (t0 <> t1);",
				"flag", "fw")
		},
		Gen: func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
			n := 1 + rng.Intn(10) // clc compares at least one byte
			a := uint64(64 + rng.Intn(16))
			b := uint64(160 + rng.Intn(16))
			compareImage(rng, mem, a, b, n)
			return append(in, a, b, uint64(n))
		},
	}
}

// TrXlate binds the IBM 370 tr (translate through a table) to the PL/1
// TRANSLATE builtin applied in place — the "translate" class of the Table 1
// survey, reusing the mvc/clc machinery: drop the register results, apply
// the length-minus-one coding constraint, convert the counted bottom-test
// loop, expose the byte read, and re-index the pointer walk.
func TrXlate() *Analysis {
	return &Analysis{
		Machine: "IBM 370", Instruction: "tr",
		Language: "PL/1", Operation: "string translate",
		Operator: "xlate", PaperSteps: 0, // beyond Table 2
		Script: func(s *core.Session) error {
			if err := apply(s, core.InsSide, "augment.epilogue", nil); err != nil {
				return err
			}
			if err := apply(s, core.InsSide, "constraint.offset", nil,
				"operand", "len", "abstract", "LenT", "delta", "-1"); err != nil {
				return err
			}
			if err := applyAtStmt(s, core.InsSide, "loop.dowhile.count", "repeat",
				"k", "len", "n", "LenT"); err != nil {
				return err
			}
			// Expose the byte read: the inner Mb[a1] inside the translated
			// store (occurrence #1; #0 is the store target itself, which is
			// not a value and cannot be hoisted).
			if err := applyAtExprN(s, core.InsSide, "move.hoist.expr", "Mb[a1]", 1,
				"temp", "t0", "width", "8"); err != nil {
				return err
			}
			return applyAtLoop(s, core.InsSide, "loop.induction.index",
				"p", "a1", "i", "i1", "width", "32")
		},
		Gen: func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
			n := 1 + rng.Intn(10) // tr translates at least one byte
			base := uint64(512 + rng.Intn(32))
			table := uint64(1024)
			drawString(rng, mem, base, n)
			// The 256-byte table, eight bytes per draw, low byte first.
			for i := uint64(0); i < 256; i += 8 {
				x := rng.Uint64()
				for k := uint64(0); k < 8; k++ {
					mem.Store(table+i+k, byte(x>>(8*k)))
				}
			}
			return append(in, base, table, uint64(n))
		},
	}
}
