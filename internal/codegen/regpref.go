package codegen

import (
	"extra/internal/sim"
)

// regPref is the paper's "intelligent register allocation" optimization
// (section 6): when exotic instructions are cascaded or put in loops, the
// operands already sitting in the instructions' dedicated registers need
// not be reloaded. The pass tracks, along straight-line code, which
// constant or variable each register is known to hold, and deletes
// redundant reloads:
//
//   - `mov r, #imm` when r already holds imm;
//   - the two-instruction variable load (scratch <- &var; r <- [scratch])
//     when r already holds var's value.
//
// Knowledge is dropped at labels and after branches (no flow join
// analysis), when the register is clobbered, and — for variable knowledge —
// when memory is written (a store could change the variable's slot).
func regPref(code []sim.Instr, clobbers func(sim.Instr) []string) []sim.Instr {
	type fact struct {
		isConst bool
		imm     uint64
		varAddr uint64 // frame address the value was loaded from
	}
	known := map[string]fact{}
	addrOf := map[string]uint64{} // scratch register -> frame address it holds
	// dfKnown/dfClear track the 8086 direction flag so cascaded string
	// operations do not re-clear it — the paper's explicit example of the
	// optimization.
	dfKnown, dfClear := false, false
	reset := func() {
		clear(known)
		clear(addrOf)
		dfKnown = false
	}

	out := make([]sim.Instr, 0, len(code))
	for i := 0; i < len(code); i++ {
		in := code[i]
		if in.Label != "" {
			reset()
			out = append(out, in)
			continue
		}
		switch in.Mn {
		case "jmp", "jz", "jnz", "jb", "jae", "loop",
			"brb", "beql", "bneq", "blss", "bgeq", "sobgtr",
			"b", "be", "bne", "bl", "bnl", "bct":
			out = append(out, in)
			reset()
			continue
		case "cld":
			if dfKnown && dfClear {
				continue // direction already known clear
			}
			out = append(out, in)
			dfKnown, dfClear = true, true
			continue
		case "std":
			out = append(out, in)
			dfKnown, dfClear = true, false
			continue
		}
		// Immediate load: mov/movl/la r, #imm.
		if (in.Mn == "mov" || in.Mn == "movl" || in.Mn == "la") &&
			len(in.Ops) == 2 && in.Ops[0].Kind == sim.KReg && in.Ops[1].Kind == sim.KImm {
			r := in.Ops[0].Reg
			if f, ok := known[r]; ok && f.isConst && f.imm == in.Ops[1].Imm {
				continue // redundant reload
			}
			out = append(out, in)
			known[r] = fact{isConst: true, imm: in.Ops[1].Imm}
			addrOf[r] = in.Ops[1].Imm // it may serve as a frame pointer next
			continue
		}
		// Variable load through a scratch pointer: movw/movl/l r, [scratch].
		if (in.Mn == "movw" || in.Mn == "movl" || in.Mn == "l") &&
			len(in.Ops) == 2 && in.Ops[0].Kind == sim.KReg && in.Ops[1].Kind == sim.KMem && in.Ops[1].Disp == 0 {
			if a, ok := addrOf[in.Ops[1].Reg]; ok {
				r := in.Ops[0].Reg
				if f, isKnown := known[r]; isKnown && !f.isConst && f.varAddr == a {
					// The value is already in r. The preceding scratch
					// load (still in `out`) stays: it is itself subject to
					// the immediate-load rule above.
					continue
				}
				out = append(out, in)
				known[r] = fact{varAddr: a}
				delete(addrOf, r)
				continue
			}
		}
		out = append(out, in)
		// Stores invalidate variable knowledge (the slot may have changed);
		// conservatively drop all non-constant facts on any memory write,
		// then learn from a frame store: the stored register now holds the
		// variable's value.
		if writesMem(in) {
			for r, f := range known {
				if !f.isConst {
					delete(known, r)
				}
			}
			if (in.Mn == "movw" || in.Mn == "movl" || in.Mn == "st") &&
				len(in.Ops) == 2 && in.Ops[0].Kind == sim.KMem && in.Ops[0].Disp == 0 &&
				in.Ops[1].Kind == sim.KReg {
				if a, ok := addrOf[in.Ops[0].Reg]; ok {
					known[in.Ops[1].Reg] = fact{varAddr: a}
				}
			}
		}
		for _, r := range clobbers(in) {
			delete(known, r)
			delete(addrOf, r)
		}
	}
	return out
}

// writesMem reports whether the instruction stores to memory.
func writesMem(in sim.Instr) bool {
	switch in.Mn {
	case "movw", "mov", "movl", "movb", "st", "stc", "mvi":
		return len(in.Ops) > 0 && in.Ops[0].Kind == sim.KMem
	case "mvc", "rep_movsb", "rep_stosb", "movc3", "movc5":
		return true
	}
	return false
}
