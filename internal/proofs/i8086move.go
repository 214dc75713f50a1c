package proofs

import (
	"math/rand"

	"extra/internal/core"
	"extra/internal/interp"
)

// MovsbPascal binds the Intel 8086 movsb (with the rep prefix) to the
// Pascal string assignment operator sassign.
func MovsbPascal() *Analysis {
	return &Analysis{
		Machine: "Intel 8086", Instruction: "movsb",
		Language: "Pascal", Operation: "string move",
		Operator: "sassign", PaperSteps: 52,
		Script: func(s *core.Session) error {
			if err := movsbInsSide(s); err != nil {
				return err
			}
			// Operator: expose the read and align the operand order with
			// movsb's (source, destination, count).
			if err := s.InlineCalls(core.OpSide); err != nil {
				return err
			}
			return apply(s, core.OpSide, "input.reorder", nil, "order", "Src.Base,Dst.Base,Len")
		},
		Gen: moveGen(),
	}
}

// MovsbPL1 binds movsb to the PL/1 runtime string move, whose description
// is a pointer-style guarded bottom-test loop; rotating and re-indexing it
// costs the extra steps the paper reports (66 vs Pascal's 52).
func MovsbPL1() *Analysis {
	return &Analysis{
		Machine: "Intel 8086", Instruction: "movsb",
		Language: "PL/1", Operation: "string move",
		Operator: "smove", PaperSteps: 66,
		Script: func(s *core.Session) error {
			if err := movsbInsSide(s); err != nil {
				return err
			}
			// Operator: rotate the guarded do-while into while form, hoist
			// the source read, convert both pointers to base+index form and
			// merge the indices.
			if err := applyAtStmt(s, core.OpSide, "loop.rotate.guarded", "if n <> 0"); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.OpSide, "move.hoist.expr", "Mb[sp]",
				"temp", "t0", "width", "8"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.OpSide, "loop.induction.index",
				"p", "sp", "i", "i1", "width", "0"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.OpSide, "loop.induction.index",
				"p", "dp", "i", "i2", "width", "0"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.OpSide, "loop.induction.merge",
				"keep", "i2", "drop", "i1"); err != nil {
				return err
			}
			return apply(s, core.OpSide, "input.reorder", nil, "order", "sp,dp,n")
		},
		Gen: moveGen(),
	}
}

// movsbInsSide simplifies movsb (rep prefix, forward direction), drops its
// register results, and rewrites the pointer walk as base+index.
func movsbInsSide(s *core.Session) error {
	if err := s.FixOperand(core.InsSide, "rf", 1); err != nil {
		return err
	}
	if err := s.FixOperand(core.InsSide, "df", 0); err != nil {
		return err
	}
	// The operator produces no value; the instruction's register results
	// are simply unused.
	if err := apply(s, core.InsSide, "augment.epilogue", nil); err != nil {
		return err
	}
	if err := s.InlineCalls(core.InsSide); err != nil {
		return err
	}
	if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
		"p", "si", "i", "i1", "width", "16"); err != nil {
		return err
	}
	if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
		"p", "di", "i", "i2", "width", "16"); err != nil {
		return err
	}
	// Bring the two index steps together, then merge them.
	if err := applyAtStmt(s, core.InsSide, "move.swap", "i1 <- i1 + 1;"); err != nil {
		return err
	}
	if err := applyAtLoop(s, core.InsSide, "loop.induction.merge",
		"keep", "i1", "drop", "i2"); err != nil {
		return err
	}
	// Sink the count decrement (body index 1) to the loop bottom.
	return sinkToLoopBottom(s, core.InsSide, 1)
}

// moveGen generates (src, dst, len) move operands over disjoint regions
// (forward byte-by-byte moves agree even when they overlap, but disjoint
// regions keep the check crisp) with random source content.
func moveGen() core.InputGen {
	return func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
		n := rng.Intn(12)
		src := uint64(64 + rng.Intn(32))
		dst := uint64(160 + rng.Intn(32))
		drawString(rng, mem, src, n)
		return append(in, src, dst, uint64(n))
	}
}

// CmpsbPascal binds the Intel 8086 cmpsb (with the repe prefix: rfz = 1,
// "repeat while equal") to the Pascal string equality comparison.
func CmpsbPascal() *Analysis {
	return &Analysis{
		Machine: "Intel 8086", Instruction: "cmpsb",
		Language: "Pascal", Operation: "string compare",
		Operator: "scompare", PaperSteps: 79,
		Script: func(s *core.Session) error {
			// --- simplify: rep prefix, repeat-while-equal, forward.
			if err := s.FixOperand(core.InsSide, "rf", 1); err != nil {
				return err
			}
			if err := s.FixOperand(core.InsSide, "rfz", 1); err != nil {
				return err
			}
			if err := s.FixOperand(core.InsSide, "df", 0); err != nil {
				return err
			}
			// --- augment: preload zf so empty strings compare equal, and
			// produce the operator's 1/0 result.
			if err := apply(s, core.InsSide, "augment.prologue", nil, "stmt", "zf <- 1;"); err != nil {
				return err
			}
			if err := apply(s, core.InsSide, "augment.epilogue", nil,
				"stmts", "if zf then output (1); else output (0); end_if;"); err != nil {
				return err
			}
			// --- verification.
			if err := s.InlineCalls(core.InsSide); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.InsSide, "rewrite.subeq", "t0 - t1 = 0"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
				"p", "si", "i", "i1", "width", "16"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
				"p", "di", "i", "i2", "width", "16"); err != nil {
				return err
			}
			if err := applyAtStmt(s, core.InsSide, "move.swap", "i1 <- i1 + 1;"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.merge",
				"keep", "i1", "drop", "i2"); err != nil {
				return err
			}
			// The zero flag is set on equality; the common form's witness is
			// set on mismatch. Replace zf by its complement and normalize.
			if err := apply(s, core.InsSide, "global.flag.invert", nil,
				"flag", "zf", "to", "fw"); err != nil {
				return err
			}
			if _, err := s.Normalize(core.InsSide); err != nil {
				return err
			}
			// The setter now assigns fw <- 0 on equality; flip it to test
			// the mismatch directly, and flip the epilogue's test back.
			if err := applyAtStmt(s, core.InsSide, "if.reverse", "if t0 = t1"); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.InsSide, "rewrite.not.rel", "not t0 = t1"); err != nil {
				return err
			}
			if err := applyAtStmt(s, core.InsSide, "if.reverse", "if not fw"); err != nil {
				return err
			}
			if _, err := s.Normalize(core.InsSide); err != nil {
				return err
			}
			// Align the position step with the operator's (after the
			// mismatch exit) and sink the count decrement.
			if err := applyAtStmt(s, core.InsSide, "move.swap", "i1 <- i1 + 1;"); err != nil {
				return err
			}
			if err := applyAtStmt(s, core.InsSide, "move.across.exit", "i1 <- i1 + 1;",
				"dir", "down"); err != nil {
				return err
			}
			if err := sinkToLoopBottom(s, core.InsSide, 1); err != nil {
				return err
			}
			// Prologue order: index init first, then the witness clear.
			if err := applyAtStmt(s, core.InsSide, "move.swap", "fw <- 0;"); err != nil {
				return err
			}

			// --- operator side: expose the reads and introduce the witness.
			if err := s.InlineCalls(core.OpSide); err != nil {
				return err
			}
			return applyAtStmt(s, core.OpSide, "loop.exit.witness", "exit_when (t0 <> t1);",
				"flag", "fw2")
		},
		Gen: compareGen(),
	}
}

// compareGen generates (a, b, len) comparison operands; half the time the
// strings are equal, otherwise they differ at a random position.
func compareGen() core.InputGen {
	return func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
		n := rng.Intn(10)
		a := uint64(64 + rng.Intn(16))
		b := uint64(160 + rng.Intn(16))
		compareImage(rng, mem, a, b, n)
		return append(in, a, b, uint64(n))
	}
}
