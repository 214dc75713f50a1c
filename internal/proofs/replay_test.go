package proofs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"extra/internal/constraint"
	"extra/internal/core"
	"extra/internal/interp"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/transform"
)

// TestScriptedStepsPreserve replays every catalog analysis and checks each
// preserving step that keeps its side's input list by differential
// execution: the description before the step and the one after it run on
// the same random inputs and memory image, and must produce the same
// outputs, the same final memory and the same error. An input that breaks
// one of the step's own constraints is skipped, since the step promises
// equivalence only where they hold. The scripts' end-to-end validation
// checks the finished binding only, on the analysis's own generator; this
// holds every intermediate rewrite to its claim, on inputs small enough
// for lengths of zero and overlapping operands to be common.
func TestScriptedStepsPreserve(t *testing.T) {
	inputs := 300
	if raceEnabled {
		inputs = 20
	}
	steps, checked := 0, 0
	for _, a := range append(Table2(), Extensions()...) {
		done, _, err := a.Run()
		if err != nil {
			t.Fatalf("%s/%s: %v", a.Instruction, a.Operator, err)
		}
		s, err := core.NewSession(langops.Get(a.Operator), machines.Get(a.Instruction))
		if err != nil {
			t.Fatal(err)
		}
		s.Extended = a.Extended
		for _, st := range done.Steps {
			steps++
			before := s.Desc(st.Side)
			if err := s.Apply(st.Side, st.Xform, st.At, st.Args); err != nil {
				t.Fatalf("%s/%s: replaying step %d: %v", a.Instruction, a.Operator, st.Index, err)
			}
			after := s.Desc(st.Side)
			tr, err := transform.Get(st.Xform)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Effect != transform.Preserving || !slices.Equal(before.Inputs(), after.Inputs()) {
				continue
			}
			checked++
			if err := sameRuns(before, after, st.Constraints, inputs, int64(steps)); err != nil {
				t.Errorf("%s/%s step %d (%s at %s): %v", a.Instruction, a.Operator, st.Index, st.Xform, st.At, err)
			}
		}
	}
	// The catalog's 298 steps hold 244 preserving steps that keep their
	// side's inputs; a script or effect change moves these counts.
	if steps != 298 || checked != 244 {
		t.Errorf("checked %d of %d steps, want 244 of 298", checked, steps)
	}
}

// sameRuns runs before and after on n random input vectors and memory
// images drawn from seed, skipping the vectors that break one of cons. Each
// operand is below 16 and fits its register; the image holds bytes 0-3 at
// addresses 0-47, so searches hit and compares match.
func sameRuns(before, after *isps.Description, cons []constraint.Constraint, n int, seed int64) error {
	const stepLimit = 10000
	names := before.Inputs()
	widths := make([]int, len(names))
	for i, name := range names {
		if r := before.Reg(name); r != nil {
			widths[i] = r.Width
		}
	}
	rb, ra := interp.Compile(before).NewRunner(), interp.Compile(after).NewRunner()
	rng := rand.New(rand.NewSource(seed))
	env := make(map[string]uint64, len(names))
	in := make([]uint64, len(names))
	var image interp.Image
	usable := 0
	for round := 0; round < n; round++ {
		for i := range in {
			v := uint64(rng.Intn(16))
			if w := widths[i]; w > 0 && w < 64 {
				v &= 1<<w - 1
			}
			in[i], env[names[i]] = v, v
		}
		image.Reset()
		for addr := uint64(0); addr < 48; addr++ {
			image.Store(addr, byte(rng.Intn(4)))
		}
		ok, err := satisfied(cons, env)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		usable++
		sb, sa := &interp.State{Base: &image}, &interp.State{Base: &image}
		resB, errB := rb.Run(context.Background(), in, sb, stepLimit)
		resA, errA := ra.Run(context.Background(), in, sa, stepLimit)
		if kb, ka := errKind(errB), errKind(errA); kb != ka {
			return fmt.Errorf("inputs %v: before %s, after %s", in, kb, ka)
		}
		if errB != nil {
			continue
		}
		if !slices.Equal(resB.Outputs, resA.Outputs) {
			return fmt.Errorf("inputs %v: outputs %v before, %v after", in, resB.Outputs, resA.Outputs)
		}
		for _, st := range []*interp.State{sb, sa} {
			for _, addr := range st.Written() {
				if vb, va := sb.Load(addr), sa.Load(addr); vb != va {
					return fmt.Errorf("inputs %v: Mb[%d] is %d before, %d after", in, addr, vb, va)
				}
			}
		}
	}
	if usable == 0 {
		return fmt.Errorf("no input of %d satisfies %v", n, cons)
	}
	return nil
}

// satisfied reports whether env meets every constraint in cons.
func satisfied(cons []constraint.Constraint, env map[string]uint64) (bool, error) {
	for _, c := range cons {
		ok, err := c.Satisfied(env)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// errKind names a run's outcome for comparison: an assertion's message
// prints its condition, which a preserving step may rewrite.
func errKind(err error) string {
	var ae *interp.AssertError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, interp.ErrStepLimit):
		return "step limit"
	case errors.As(err, &ae):
		return "assertion failure"
	}
	return err.Error()
}
