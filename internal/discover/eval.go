package discover

import (
	"fmt"

	"extra/internal/codegen"
	"extra/internal/core"
	"extra/internal/fault"
	"extra/internal/hll"
	"extra/internal/ir"
	"extra/internal/synth"
)

// Cycle-savings evaluation: how much is a newly discovered binding worth?
// The sweep answers with the retargetable code generator's own economics —
// compile a representative workload for the candidate's machine twice, once
// with the discovered binding in place of the catalog's (Options.Exotic on)
// and once forced to the decomposed primitive loop (Exotic off), run both
// on the cycle-
// costed simulator, and report the delta. The generator's graceful
// degradation makes the measurement honest: a binding the emitter cannot
// actually use falls back to the loop, the two programs cost the same, and
// the savings are 0 — never inflated.

// opClass maps an operator name onto the IR operation its workload
// exercises. Operators with no IR counterpart (list search) return "".
func opClass(operator string) string {
	switch operator {
	case "index", "indexc", "pindex":
		return "index"
	case "sassign", "smove", "blkcpy":
		return "move"
	case "scompare":
		return "compare"
	case "blkclr":
		return "clear"
	case "xlate":
		return "xlate"
	}
	return ""
}

const evalMaxSteps = 100_000

// evalSavings fills res's cycle fields for a found binding. Every failure
// mode degrades to savings 0 with a note — a discovery report must never
// die on its victory lap.
func evalSavings(c Candidate, b *core.Binding, res *Result) {
	class := opClass(c.Operator)
	if class == "" {
		res.SavingsNote = "no workload for operator " + c.Operator
		return
	}
	site := synth.EmitterFor(c.Machine, c.Instruction, class)
	if site == nil {
		res.SavingsNote = fmt.Sprintf("no cycle-costed emitter for %s %s as %s", c.Machine, c.Instruction, class)
		return
	}
	exotic, loop, err := evalRun(site, b)
	if err != nil {
		res.SavingsNote = fmt.Sprintf("evaluation %s: %v", fault.Classify(err), err)
		return
	}
	res.CyclesExotic = exotic
	res.CyclesLoop = loop
	res.SavingsCycles = int64(loop) - int64(exotic)
}

// evalRun compiles and simulates the site's base workload (synth's, so a
// saving here is measured on the block synthesis ranks on) with b in place
// of the catalog's binding, with and without exotic emission.
func evalRun(site *synth.Binding, b *core.Binding) (exotic, loop uint64, err error) {
	defer fault.RecoverInto(&err, "discover.eval")
	src, err := synth.BaseWorkload(site.Class)
	if err != nil {
		return 0, 0, err
	}
	prog, err := hll.Parse(src)
	if err != nil {
		return 0, 0, err
	}
	t, err := codegen.ForBinding(site.Target, site.Key, b)
	if err != nil {
		return 0, 0, err
	}
	exotic, err = evalCycles(t, prog, codegen.Options{Exotic: true, Rewriting: true})
	if err != nil {
		return 0, 0, err
	}
	loop, err = evalCycles(t, prog, codegen.Options{Rewriting: true})
	if err != nil {
		return 0, 0, err
	}
	return exotic, loop, nil
}

func evalCycles(t codegen.Target, prog *ir.Prog, o codegen.Options) (uint64, error) {
	p, err := t.Compile(prog, o)
	if err != nil {
		return 0, err
	}
	m, err := codegen.Run(t, p, evalMaxSteps)
	if err != nil {
		return 0, err
	}
	return m.Cycles, nil
}
