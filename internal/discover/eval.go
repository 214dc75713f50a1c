package discover

import (
	"fmt"
	"sync"

	"extra/internal/codegen"
	"extra/internal/core"
	"extra/internal/fault"
	"extra/internal/hll"
	"extra/internal/ir"
)

// Cycle-savings evaluation: how much is a newly discovered binding worth?
// The sweep answers with the retargetable code generator's own economics —
// compile a representative workload for the candidate's machine twice, once
// with the discovered binding injected (Options.Exotic on) and once forced
// to the decomposed primitive loop (Exotic off), run both on the cycle-
// costed simulator, and report the delta. The generator's graceful
// degradation makes the measurement honest: a binding the emitter cannot
// actually use falls back to the loop, the two programs cost the same, and
// the savings are 0 — never inflated.

// evalTarget describes where a discovered binding can be exercised: the
// codegen target, the emitter's binding key (the generator consults fixed
// keys; injection shadows them), and a workload whose op class routes
// through that emitter.
type evalTarget struct {
	target  string
	bindKey string
	src     string
}

// workloads per operator class: one string operation over a 64-byte block,
// sized so the per-element loop cost dominates the fixed overhead.
const (
	evalData = `data 1024 "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXY!"` + "\n"

	evalIndexSrc = evalData + `let i = index 1024 63 '!'
print i
`
	evalMoveSrc = evalData + `move 2048 1024 63
`
	evalCompareSrc = evalData + `data 2048 "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXY!"
let e = compare 1024 2048 63
print e
`
	evalClearSrc = evalData + `clear 1024 63
`
	evalXlateSrc = evalData + `xlate 1024 4096 63
`
)

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

// evalTargets keys machine|instruction|class to the emitter that would use
// such a binding. These are exactly the generator's exotic-emission sites;
// a (machine, instruction) with no cycle-costed simulator (DG Eclipse,
// Burroughs B4800) or whose instruction no emitter consults has no entry.
var evalTargets = map[string]evalTarget{
	"Intel 8086|scasb|index":   {"i8086", "Intel 8086/scasb/index", evalIndexSrc},
	"Intel 8086|movsb|move":    {"i8086", "Intel 8086/movsb/sassign", evalMoveSrc},
	"Intel 8086|stosb|clear":   {"i8086", "Intel 8086/stosb/blkclr", evalClearSrc},
	"Intel 8086|cmpsb|compare": {"i8086", "Intel 8086/cmpsb/scompare", evalCompareSrc},
	"VAX-11|locc|index":        {"vax", "VAX-11/locc/index", evalIndexSrc},
	"VAX-11|movc3|move":        {"vax", "VAX-11/movc3/sassign", evalMoveSrc},
	"VAX-11|movc5|clear":       {"vax", "VAX-11/movc5/blkclr", evalClearSrc},
	"VAX-11|cmpc3|compare":     {"vax", "VAX-11/cmpc3/scompare", evalCompareSrc},
	"IBM 370|mvc|move":         {"ibm370", "IBM 370/mvc/sassign", evalMoveSrc},
	"IBM 370|clc|compare":      {"ibm370", "IBM 370/clc/scompare", evalCompareSrc},
	"IBM 370|tr|xlate":         {"ibm370", "IBM 370/tr/xlate", evalXlateSrc},
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
	et, ok := evalTargets[c.Machine+"|"+c.Instruction+"|"+class]
	if !ok {
		res.SavingsNote = fmt.Sprintf("no cycle-costed emitter for %s %s as %s", c.Machine, c.Instruction, class)
		return
	}
	exotic, loop, err := evalRun(et, b)
	if err != nil {
		res.SavingsNote = fmt.Sprintf("evaluation %s: %v", fault.Classify(err), err)
		return
	}
	res.CyclesExotic = exotic
	res.CyclesLoop = loop
	res.SavingsCycles = int64(loop) - int64(exotic)
}

// evalMu serializes evalRun. codegen.InjectBindings swaps a process-wide
// override table and its restore puts back the table it saw at install
// time, so two concurrent evaluations — two found candidates on one
// emitter key, as movsb/sassign and movsb/smove are — would compile
// against each other's binding or drop it.
var evalMu sync.Mutex

// evalRun compiles and simulates the workload with and without the binding.
func evalRun(et evalTarget, b *core.Binding) (exotic, loop uint64, err error) {
	defer fault.RecoverInto(&err, "discover.eval")
	evalMu.Lock()
	defer evalMu.Unlock()
	restore := codegen.InjectBindings(map[string]*core.Binding{et.bindKey: b})
	defer restore()
	prog, err := hll.Parse(et.src)
	if err != nil {
		return 0, 0, err
	}
	t, err := codegen.For(et.target)
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
