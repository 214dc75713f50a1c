package proofs

import (
	"math/rand"

	"extra/internal/core"
	"extra/internal/interp"
)

// ScasbRigel is the paper's flagship example (section 4.1): the Intel 8086
// scasb instruction implements the Rigel index operator after fixing the
// rf/rfz/df flags, augmenting the prologue (clear zf, save the start
// address) and the epilogue (compute the 1-based index from the final
// address), and 70-odd verification transformations.
func ScasbRigel() *Analysis {
	return &Analysis{
		Machine: "Intel 8086", Instruction: "scasb",
		Language: "Rigel", Operation: "string search",
		Operator: "index", PaperSteps: 73,
		Script: scasbScript("index"),
		Gen:    searchGen(),
	}
}

// ScasbCLU binds scasb to the CLU runtime's string$indexc, whose
// description counts the position up to a limit instead of counting the
// length down, costing extra loop transformations (the paper took 86 steps
// against Rigel's 73).
func ScasbCLU() *Analysis {
	return &Analysis{
		Machine: "Intel 8086", Instruction: "scasb",
		Language: "CLU", Operation: "string search",
		Operator: "indexc", PaperSteps: 86,
		Script: scasbScript("indexc"),
		Gen:    searchGen(),
	}
}

// searchGen generates (base, length, char) operand vectors with a string in
// memory over three letters and a char over four, so it is sometimes absent.
func searchGen() core.InputGen {
	return func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
		n := rng.Intn(12)
		base := uint64(64 + rng.Intn(64))
		drawString(rng, mem, base, n)
		ch := uint64('a' + rng.Intn(4))
		return append(in, base, uint64(n), ch)
	}
}

// scasbScript builds the scasb proof against either search operator. The
// instruction side is identical for both; the operator side differs.
func scasbScript(operator string) func(*core.Session) error {
	return func(s *core.Session) error {
		// --- simplify the instruction: fix the control flags (fig. 3 -> 4).
		if err := s.FixOperand(core.InsSide, "rf", 1); err != nil {
			return err
		}
		if err := s.FixOperand(core.InsSide, "rfz", 0); err != nil {
			return err
		}
		if err := s.FixOperand(core.InsSide, "df", 0); err != nil {
			return err
		}
		s.Snapshot("fig4", core.InsSide)

		// --- augment (fig. 4 -> 5): clear zf, save the start address, and
		// compute the operator's result in the epilogue.
		if err := apply(s, core.InsSide, "augment.prologue", nil, "stmt", "zf <- 0;"); err != nil {
			return err
		}
		if err := apply(s, core.InsSide, "augment.prologue", nil,
			"stmt", "temp <- di;", "decl", "temp", "width", "16"); err != nil {
			return err
		}
		if err := apply(s, core.InsSide, "augment.epilogue", nil,
			"stmts", "if zf then output (di - temp); else output (0); end_if;"); err != nil {
			return err
		}
		s.Snapshot("fig5", core.InsSide)

		// --- verification transformations on the instruction.
		if err := s.InlineCalls(core.InsSide); err != nil {
			return err
		}
		if err := applyAtExpr(s, core.InsSide, "rewrite.subeq", "al - t0 = 0"); err != nil {
			return err
		}
		if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
			"p", "di", "i", "idx", "width", "16"); err != nil {
			return err
		}
		if err := apply(s, core.InsSide, "global.copy.prop", nil, "var", "temp"); err != nil {
			return err
		}
		if err := applyAtStmt(s, core.InsSide, "global.dead.assign", "temp <- di;"); err != nil {
			return err
		}
		if err := apply(s, core.InsSide, "global.dead.decl", nil, "var", "temp"); err != nil {
			return err
		}
		if err := applyAtExpr(s, core.InsSide, "rewrite.addsub.cancel", "di + idx - di"); err != nil {
			return err
		}
		// Sink cx's decrement (body index 1) below the found exit; it is
		// dead once the loop exits.
		if err := sinkToLoopBottom(s, core.InsSide, 1); err != nil {
			return err
		}
		// Prologue order: i before the flag clear, as on the operator side.
		if err := applyAtStmt(s, core.InsSide, "move.swap", "zf <- 0;"); err != nil {
			return err
		}

		// --- operator side.
		if err := s.InlineCalls(core.OpSide); err != nil {
			return err
		}
		switch operator {
		case "index":
			// Rigel: introduce the witness flag for the found exit.
			if err := applyAtStmt(s, core.OpSide, "loop.exit.witness", "exit_when (ch = t0);",
				"flag", "fw"); err != nil {
				return err
			}
		case "indexc":
			// CLU: hoist the memory read, count the limit down, introduce
			// the witness, then align the position step with scasb's.
			if err := applyAtExpr(s, core.OpSide, "move.hoist.expr", "Mb[base + i]",
				"temp", "t0", "width", "8"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.OpSide, "loop.countdown.intro",
				"i", "i", "n", "limit", "len", "limit"); err != nil {
				return err
			}
			if err := applyAtStmt(s, core.OpSide, "loop.exit.witness", "exit_when (t0 = c);",
				"flag", "fw"); err != nil {
				return err
			}
			if err := applyAtStmt(s, core.OpSide, "loop.move.increment", "i <- i + 1;",
				"dir", "up"); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.OpSide, "rewrite.subadd.cancel", "i - 1 + 1"); err != nil {
				return err
			}
			// Step before the comparison, as in scasb's fetch.
			if err := applyAtStmt(s, core.OpSide, "move.swap", "if t0 = c"); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.OpSide, "rewrite.commute.rel", "t0 = c"); err != nil {
				return err
			}
		}
		return nil
	}
}
