package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"extra/internal/constraint"
	"extra/internal/interp"
	"extra/internal/obs"
)

// InputGen produces a random operator input vector (matching the operator's
// final input signature) together with an initial memory image. Generators
// are analysis-specific: a string search wants a string in memory and a
// small alphabet so hits occur; a list search wants a linked list.
type InputGen func(rng *rand.Rand) (opInputs []uint64, mem map[uint64]byte)

// ValidateBinding executes the operator description and the customized
// (simplified + augmented) instruction variant on `rounds` generated inputs
// and verifies they produce identical outputs and final memory. Inputs that
// violate the binding's constraints are skipped — the binding only promises
// equivalence when the constraints hold. It returns the number of input
// vectors actually checked.
//
// This is the reproduction's substitute for the paper's hand verification
// against production compilers (section 5), and it is the check that found
// "obscure bugs in the use of VAX-11 instructions in each compiler" there.
// It is ValidateBindingCtx without a bound; it stays because the benchmark
// module calls it.
func ValidateBinding(b *Binding, gen InputGen, rounds int, seed int64) (int, error) {
	return ValidateBindingCtx(context.Background(), b, gen, rounds, seed)
}

// ValidateBindingCtx is ValidateBinding bounded by ctx, with a span on the
// context's tracer bounding the differential run (attrs: binding, rounds
// requested, inputs actually checked, outcome). The context is checked
// between rounds and inside each interpreter execution, so a deadline
// interrupts even a single runaway description. Constraint evaluations and
// interpreter runs are counted in locals and recorded in the process metrics
// registry once, when the validation returns, whether it passed, was refuted,
// failed, was cancelled or panicked: interp.run and interp.run.err per run,
// constraint.check per check, and one interp.steps sample per description,
// its mean steps per successful run.
func ValidateBindingCtx(ctx context.Context, b *Binding, gen InputGen, rounds int, seed int64) (n int, err error) {
	label := b.Instruction + "/" + b.Operation
	if tr := obs.TracerFrom(ctx); tr.Enabled() {
		sp := tr.StartSpan("validate", map[string]any{"binding": label, "rounds": rounds})
		defer func() {
			attrs := map[string]any{"checked": n, "outcome": "ok"}
			if err != nil {
				attrs["outcome"] = "refuted"
				attrs["detail"] = err.Error()
			}
			sp.End(attrs)
		}()
	}
	// Compile once, run per input: both descriptions and every predicate.
	// Each side runs on its own Runner; a run's Result is read before that
	// side runs again.
	op := runTally{name: b.Operator.Name, run: interp.Compile(b.Operator).NewRunner()}
	variant := runTally{name: b.Variant.Name, run: interp.Compile(b.Variant).NewRunner()}
	var sat, unsat uint64
	defer func() {
		reg := obs.Default()
		reg.Inc("validate.runs", label)
		if sat > 0 {
			reg.Add("constraint.check", "sat", sat)
		}
		if unsat > 0 {
			reg.Add("constraint.check", "unsat", unsat)
		}
		op.flush(reg)
		variant.flush(reg)
	}()
	// Constraints are phrased over both operator operand names and
	// instruction operand names. Each is bound once to the position its
	// names take in a generated operand vector: of a name in both lists,
	// or twice in one, the last position, as one environment filled in
	// list order would hold. A constraint on an operand that neither list
	// carries is dropped.
	pos := make(map[string]int, 2*len(b.OpInputs))
	for i, name := range b.OpInputs {
		pos[name] = i
		pos[b.InsInputs[i]] = i
	}
	checks := make([]constraint.Compiled, 0, len(b.Constraints))
	for _, c := range b.Constraints {
		if k, ok := c.Compile(pos); ok {
			checks = append(checks, k)
		}
	}
	// Both sides run over the generator's image as a shared read-only
	// base, each writing into its own overlay, reset between rounds.
	// Registers are not observed (nil Regs).
	var st1, st2 interp.State
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for r := 0; r < rounds; r++ {
		if cerr := ctx.Err(); cerr != nil {
			return checked, fmt.Errorf("core: validation interrupted after %d rounds: %w", r, cerr)
		}
		opIn, mem := gen(rng)
		if len(opIn) != len(b.OpInputs) {
			return checked, fmt.Errorf("core: generator produced %d operands, binding has %d", len(opIn), len(b.OpInputs))
		}
		ok := true
		for i := range checks {
			holds, cerr := checks[i].Satisfied(opIn)
			if cerr != nil {
				return checked, fmt.Errorf("core: cannot evaluate constraint %s: %v", checks[i].Constraint, cerr)
			}
			if !holds {
				unsat++
				ok = false
				break
			}
			sat++
		}
		if !ok {
			continue
		}
		st1.ResetMem()
		st2.ResetMem()
		st1.Base, st2.Base = mem, mem
		r1, err1 := op.exec(ctx, opIn, &st1)
		r2, err2 := variant.exec(ctx, opIn, &st2)
		if err1 != nil || err2 != nil {
			// Wrap the first failure so typed sentinels (ErrStepLimit,
			// ErrCallDepth, context errors) survive this layer.
			cause := err1
			if cause == nil {
				cause = err2
			}
			return checked, fmt.Errorf("core: execution failed (operator: %v, variant: %v): %w", err1, err2, cause)
		}
		if !slices.Equal(r1.Outputs, r2.Outputs) {
			return checked, fmt.Errorf("core: binding refuted on inputs %v: operator outputs %v, variant outputs %v",
				opIn, r1.Outputs, r2.Outputs)
		}
		if !sameWrites(&st1, &st2) {
			return checked, fmt.Errorf("core: binding refuted on inputs %v: final memories differ", opIn)
		}
		checked++
	}
	if checked == 0 {
		return 0, fmt.Errorf("core: no generated inputs satisfied the binding's constraints")
	}
	return checked, nil
}

// runTally is one side of a validation: its Runner, and the runs and steps
// it made, counted here and recorded once by flush.
type runTally struct {
	name              string
	run               *interp.Runner
	runs, errs, steps uint64
}

func (t *runTally) exec(ctx context.Context, in []uint64, st *interp.State) (*interp.Result, error) {
	res, err := t.run.Run(ctx, in, st, 0)
	if err != nil {
		t.errs++
	} else {
		t.runs++
		t.steps += uint64(res.Steps)
	}
	return res, err
}

// flush records the side's runs and failed runs, and one interp.steps
// sample: the mean steps of its successful runs.
func (t *runTally) flush(reg *obs.Registry) {
	if t.runs > 0 {
		reg.Add("interp.run", t.name, t.runs)
		reg.Observe("interp.steps", t.name, t.steps/t.runs)
	}
	if t.errs > 0 {
		reg.Add("interp.run.err", t.name, t.errs)
	}
}

// sameWrites reports whether two runs over one base image left the same
// final memory. Only addresses one side wrote can differ, so it compares
// the two sides' views of each address either side logged: a write of the
// base's own value, or of 0 where the base has no byte, is no difference,
// exactly as in a compare of the two full memories.
func sameWrites(a, b *interp.State) bool {
	for _, s := range []*interp.State{a, b} {
		for _, k := range s.Written() {
			if a.Load(k) != b.Load(k) {
				return false
			}
		}
	}
	return true
}
