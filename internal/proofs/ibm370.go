package proofs

import (
	"math/rand"

	"extra/internal/core"
	"extra/internal/interp"
)

// MvcPascal binds the IBM 370 mvc to the Pascal string assignment. The mvc
// length field encodes the byte count minus one (it moves len+1 bytes), so
// the analysis introduces the paper's coding constraint — a directive to
// the compiler to decrement the length before loading the field (section
// 4.2) — and converts the resulting bottom-test loop into the operator's
// top-test form, which is valid only for lengths in [1, 256]. The paper's
// longest analysis (105 steps).
func MvcPascal() *Analysis {
	return &Analysis{
		Machine: "IBM 370", Instruction: "mvc",
		Language: "Pascal", Operation: "string move",
		Operator: "sassign", PaperSteps: 105,
		Script: func(s *core.Session) error {
			// The operator produces no value.
			if err := apply(s, core.InsSide, "augment.epilogue", nil); err != nil {
				return err
			}
			// The coding constraint: the compiler loads Len-1 into the
			// 8-bit length field.
			if err := apply(s, core.InsSide, "constraint.offset", nil,
				"operand", "len", "abstract", "Len2", "delta", "-1"); err != nil {
				return err
			}
			s.Snapshot("coding", core.InsSide)
			// Integrate the decrement: the k+1-times bottom-test loop
			// becomes an n-times top-test loop, valid for n >= 1.
			if err := applyAtStmt(s, core.InsSide, "loop.dowhile.count", "repeat",
				"k", "len", "n", "Len2"); err != nil {
				return err
			}
			if err := applyAtExpr(s, core.InsSide, "move.hoist.expr", "Mb[b2]",
				"temp", "t0", "width", "8"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
				"p", "b1", "i", "i1", "width", "32"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
				"p", "b2", "i", "i2", "width", "32"); err != nil {
				return err
			}
			if err := applyAtLoop(s, core.InsSide, "loop.induction.merge",
				"keep", "i1", "drop", "i2"); err != nil {
				return err
			}
			return s.InlineCalls(core.OpSide)
		},
		Gen: func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
			// The binding holds for 1 <= Len <= 256.
			n := 1 + rng.Intn(12)
			dst := uint64(64 + rng.Intn(32))
			src := uint64(160 + rng.Intn(32))
			drawString(rng, mem, src, n)
			return append(in, dst, src, uint64(n))
		},
	}
}
