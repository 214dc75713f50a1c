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
func ValidateBinding(b *Binding, gen InputGen, rounds int, seed int64) (int, error) {
	return ValidateBindingCtx(context.Background(), b, gen, rounds, seed, nil)
}

// ValidateBindingCtx is ValidateBinding bounded by ctx, with a span on tr
// bounding the differential run (attrs: binding, rounds requested, inputs
// actually checked, outcome). The context is checked between rounds and
// inside each interpreter execution, so a deadline interrupts even a single
// runaway description. Constraint evaluations and interpreter runs are
// counted in the process metrics registry either way.
func ValidateBindingCtx(ctx context.Context, b *Binding, gen InputGen, rounds int, seed int64, tr *obs.Tracer) (n int, err error) {
	reg := obs.Default()
	label := b.Instruction + "/" + b.Operation
	reg.Inc("validate.runs", label)
	if tr.Enabled() {
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
	op, variant := interp.Compile(b.Operator), interp.Compile(b.Variant)
	checks := make([]constraint.Compiled, len(b.Constraints))
	for i, c := range b.Constraints {
		checks[i] = c.Compile()
	}
	// Constraints are phrased over both operator operand names and
	// instruction operand names; one environment holds both. Every round
	// sets the same keys, so the map is reused.
	env := make(map[string]uint64, 2*len(b.OpInputs))
	// Both sides run over the generator's image as a shared read-only
	// base, each writing into its own overlay, cleared between rounds.
	// Registers are not observed (nil Regs).
	st1 := &interp.State{Mem: map[uint64]byte{}}
	st2 := &interp.State{Mem: map[uint64]byte{}}
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
		for i, name := range b.OpInputs {
			env[name] = opIn[i]
			env[b.InsInputs[i]] = opIn[i]
		}
		ok := true
		for _, c := range checks {
			// Constraints on operands that no longer appear in either input
			// list (fixed flags, re-encoded fields) are satisfied by
			// construction: the variant embeds them.
			if c.Kind != constraint.Predicate {
				if _, present := env[c.Operand]; !present {
					continue
				}
			}
			sat, err := c.Satisfied(env)
			if err != nil {
				return checked, fmt.Errorf("core: cannot evaluate constraint %s: %v", c, err)
			}
			if !sat {
				reg.Inc("constraint.check", "unsat")
				ok = false
				break
			}
			reg.Inc("constraint.check", "sat")
		}
		if !ok {
			continue
		}
		clear(st1.Mem)
		clear(st2.Mem)
		st1.Base, st2.Base = mem, mem
		r1, err1 := op.Run(ctx, opIn, st1, 0)
		r2, err2 := variant.Run(ctx, opIn, st2, 0)
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
		if !sameWrites(st1, st2) {
			return checked, fmt.Errorf("core: binding refuted on inputs %v: final memories differ", opIn)
		}
		checked++
	}
	if checked == 0 {
		return 0, fmt.Errorf("core: no generated inputs satisfied the binding's constraints")
	}
	return checked, nil
}

// sameWrites reports whether two runs over one base image left the same
// final memory. Only addresses one side wrote can differ, so it compares
// each side's writes with the other side's view of the same address: a
// write of the base's own value, or of 0 where the base has no byte, is no
// difference, exactly as in a compare of the two full memories.
func sameWrites(a, b *interp.State) bool {
	for k, v := range a.Mem {
		if b.Load(k) != v {
			return false
		}
	}
	for k, v := range b.Mem {
		if a.Load(k) != v {
			return false
		}
	}
	return true
}
