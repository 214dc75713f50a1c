package proofs

import (
	"errors"
	"fmt"
	"math/rand"

	"extra/internal/core"
	"extra/internal/interp"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
)

// Movc3PascalExtended resolves the paper's section 4.3 failure — VAX movc3
// against Pascal string assignment — using the multi-operand predicate
// constraint the paper lists as its first direction for future research:
// Pascal strings cannot overlap, so movc3's overlap-guarded copy collapses
// to the forward loop under the constraint
// (src + len <= dst) or (dst + len <= src).
func Movc3PascalExtended() *Analysis {
	return &Analysis{
		Machine: "VAX-11", Instruction: "movc3",
		Language: "Pascal", Operation: "string move",
		Operator: "sassign", PaperSteps: 0, // not in Table 2: classic EXTRA fails here
		Extended: true,
		Script:   movc3SassignScript,
		Gen: func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
			// Pascal guarantees no overlap; the generator reflects the
			// language property and the predicate constraint filters any
			// residual overlap.
			n := rng.Intn(12)
			src := uint64(64 + rng.Intn(32))
			dst := uint64(160 + rng.Intn(32))
			if rng.Intn(2) == 0 {
				src, dst = dst, src
			}
			drawString(rng, mem, src, n)
			return append(in, uint64(n), src, dst)
		},
	}
}

// movc3SassignScript is shared by the extended analysis and the classic
// failure reproduction: the very first interesting step needs a predicate
// constraint, which classic EXTRA cannot represent.
func movc3SassignScript(s *core.Session) error {
	if err := apply(s, core.InsSide, "augment.epilogue", nil); err != nil {
		return err
	}
	// The crux: collapse the overlap guard under the no-overlap predicate.
	if err := applyAtStmt(s, core.InsSide, "loop.reverse.copy", "if src < dst",
		"len", "len", "src", "src", "dst", "dst"); err != nil {
		return err
	}
	if err := applyAtExpr(s, core.InsSide, "move.hoist.expr", "Mb[src]",
		"temp", "t0", "width", "8"); err != nil {
		return err
	}
	if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
		"p", "src", "i", "i1", "width", "32"); err != nil {
		return err
	}
	if err := applyAtLoop(s, core.InsSide, "loop.induction.index",
		"p", "dst", "i", "i2", "width", "32"); err != nil {
		return err
	}
	if err := applyAtLoop(s, core.InsSide, "loop.induction.merge",
		"keep", "i1", "drop", "i2"); err != nil {
		return err
	}
	if err := s.InlineCalls(core.OpSide); err != nil {
		return err
	}
	return apply(s, core.OpSide, "input.reorder", nil, "order", "Len,Src.Base,Dst.Base")
}

// B4800Lsearch reproduces the paper's introductory example (section 1): the
// Burroughs B4800 list search assumes the link field is the first field of
// the record, so binding it to a general list-search operator constrains
// the operator's link-offset operand to zero — a constraint for the storage
// allocator, not the code generator.
func B4800Lsearch() *Analysis {
	return &Analysis{
		Machine: "Burroughs B4800", Instruction: "lss",
		Language: "Rigel", Operation: "list search",
		Operator: "lsearch", PaperSteps: 0, // beyond Table 2
		Script: func(s *core.Session) error {
			// The constraint falls on the *operator's* operand: the record
			// layout must put the link first.
			if err := s.FixOperand(core.OpSide, "loff", 0); err != nil {
				return err
			}
			return nil
		},
		Gen: func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
			// Build a short linked list in the first 256 bytes: nodes 8
			// bytes apart from 16, link byte at +0, key byte at +1.
			n := rng.Intn(5)
			for i := 0; i < n; i++ {
				a := uint64(16 + i*8)
				next := byte(0)
				if i+1 < n {
					next = byte(a + 8)
				}
				mem.Store(a, next)
				mem.Store(a+1, byte('a'+rng.Intn(3)))
			}
			head := uint64(0)
			if n > 0 {
				head = 16
			}
			kv := uint64('a' + rng.Intn(4))
			return append(in, head, 1, kv)
		},
	}
}

// FailureCase documents an analysis the paper's EXTRA cannot perform.
type FailureCase struct {
	Name string
	// Paper is the paper's diagnosis.
	Paper string
	// Attempt runs the analysis in classic mode and returns the blocking
	// error.
	Attempt func() error
}

// Failures returns the paper's two failure cases.
func Failures() []FailureCase {
	return []FailureCase{
		{
			Name: "VAX-11 movc3 / Pascal sassign (classic mode)",
			Paper: "the descriptions are equivalent only when the strings do not overlap, " +
				"and EXTRA can only deal with constraints of simple forms; the no-overlap " +
				"condition involves more than one operand (section 4.3)",
			Attempt: func() error {
				op := langops.Get("sassign")
				ins := machines.Get("movc3")
				s, err := core.NewSession(op, ins)
				if err != nil {
					return err
				}
				s.Extended = false // classic EXTRA
				err = movc3SassignScript(s)
				if err == nil {
					return fmt.Errorf("proofs: classic movc3/sassign unexpectedly succeeded")
				}
				if !errors.Is(err, core.ErrComplexConstraint) {
					return fmt.Errorf("proofs: expected the complex-constraint failure, got: %v", err)
				}
				return err
			},
		},
		{
			Name: "DG Eclipse cmv / PL/1 smove",
			Paper: "the direction of the move is encoded in the sign of the length operand, " +
				"which thus serves two unrelated purposes; no transformation separates the " +
				"two functions (section 5)",
			Attempt: attemptEclipse,
		},
	}
}

// attemptEclipse tries the natural attack on the Eclipse character move and
// reports why each step is blocked: the direction test inside the loop
// depends on the run-time value of the length operand, so it can neither be
// folded, nor collapsed, nor pattern-matched as an overlap guard.
func attemptEclipse() error {
	op := langops.Get("smove")
	ins := machines.Get("cmv")
	s, err := core.NewSession(op, ins)
	if err != nil {
		return err
	}
	var blocks []string
	// 1. The direction is data, not a flag: there is no flag operand to
	// fix, and fixing n itself would constrain the string length to a
	// single constant value.
	if err := s.Apply(core.InsSide, "global.const.prop", nil, map[string]string{"var": "n"}); err != nil {
		blocks = append(blocks, "cannot propagate a direction value: "+err.Error())
	}
	// 2. The branches of the in-loop direction test differ, so it cannot
	// collapse.
	ifAt, ferr := stmtWhere(s.Ins, func(st isps.Stmt) bool {
		_, ok := st.(*isps.IfStmt)
		return ok
	})
	if ferr == nil {
		if err := s.Apply(core.InsSide, "if.same", ifAt, nil); err != nil {
			blocks = append(blocks, "direction branches are not interchangeable: "+err.Error())
		}
	}
	// 3. It is not the movc3 overlap-guard shape either.
	if err := s.Apply(core.InsSide, "loop.reverse.copy", ifAt,
		map[string]string{"len": "n", "src": "acs", "dst": "acd"}); err != nil {
		blocks = append(blocks, "not an overlap guard: "+err.Error())
	}
	if len(blocks) < 3 {
		return fmt.Errorf("proofs: the Eclipse cmv analysis unexpectedly made progress")
	}
	return fmt.Errorf("proofs: Eclipse cmv defeats the analysis (the length operand encodes the direction):\n  %s\n  %s\n  %s",
		blocks[0], blocks[1], blocks[2])
}
