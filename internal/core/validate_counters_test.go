package core_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"extra/internal/constraint"
	"extra/internal/core"
	"extra/internal/interp"
	"extra/internal/isps"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// TestValidationCountersExact: a validation counts its interpreter runs,
// failed runs and constraint checks itself and records them, and itself,
// in the process registry once, on every return path. Three validations
// (one that passes, one a corrupted variant refutes part way, one
// cancelled part way) must each move the registry by exactly what a
// recount of the same seeded inputs finds, and add one interp.steps sample
// per description that ran.
func TestValidationCountersExact(t *testing.T) {
	// movc3/sassign carries the catalog's one predicate constraint.
	sassign := proofs.Movc3PascalExtended()
	movc3 := bindingOf(t, sassign)
	movsb := proofs.MovsbPascal()
	corrupt := corruptMovsb(t)

	for _, tc := range []struct {
		name     string
		b        *core.Binding
		gen      core.InputGen
		cancelAt int // the generator call that cancels the context; 0 never
		want     func(error) bool
	}{
		{"passes", movc3, sassign.Gen, 0, func(err error) bool { return err == nil }},
		{"refuted", corrupt, movsb.Gen, 0, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "final memories differ")
		}},
		{"cancelled", movc3, sassign.Gen, 40, func(err error) bool { return errors.Is(err, context.Canceled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds, seed = 300, 7
			names := []string{tc.b.Operator.Name, tc.b.Variant.Name}
			series := counterSeries(tc.b)
			before := validationCounters(tc.b)
			ctx, gen := cancelling(tc.gen, tc.cancelAt)
			_, err := core.ValidateBindingCtx(ctx, tc.b, gen, rounds, seed)
			if !tc.want(err) {
				t.Fatalf("validation returned %v", err)
			}
			after := validationCounters(tc.b)

			ctx, gen = cancelling(tc.gen, tc.cancelAt)
			rc := recount(t, ctx, tc.b, gen, rounds, seed)
			want := []uint64{rc.sat, rc.unsat, 1}
			for _, n := range names {
				samples := uint64(0)
				if rc.runs[n] > 0 {
					samples = 1
				}
				want = append(want, rc.runs[n], rc.errs[n], samples)
			}
			for i := range want {
				if got := after[i] - before[i]; got != want[i] {
					t.Errorf("%s: delta %d, recount %d", series[i], got, want[i])
				}
			}
			if rc.runs[names[0]] < 2 || rc.sat == 0 {
				t.Errorf("recount %+v: the validation stopped before it ran twice", rc)
			}
		})
	}
}

// bindingOf runs a's analysis and returns its binding.
func bindingOf(t *testing.T, a *proofs.Analysis) *core.Binding {
	t.Helper()
	_, b, err := a.Run()
	if err != nil {
		t.Fatalf("%s/%s: %v", a.Instruction, a.Operator, err)
	}
	return b
}

// corruptMovsb returns movsb/sassign's binding with its variant corrupted
// to write a byte the operator does not whenever the length is 7.
func corruptMovsb(t *testing.T) *core.Binding {
	t.Helper()
	corrupt := *bindingOf(t, proofs.MovsbPascal())
	stray, err := isps.ParseStmt("if cx = 7 then Mb[9999] <- 1; end_if;")
	if err != nil {
		t.Fatal(err)
	}
	in, ok := isps.Find(corrupt.Variant, func(n isps.Node) bool {
		_, is := n.(*isps.InputStmt)
		return is
	})
	if !ok {
		t.Fatal("movsb variant has no input statement")
	}
	blk, idx := in.Parent()
	if corrupt.Variant, err = corrupt.Variant.SpliceAtDesc(blk, idx+1, 0, stray); err != nil {
		t.Fatal(err)
	}
	return &corrupt
}

// counterSeries names the registry series a validation of b moves, in the
// order validationCounters reads them.
func counterSeries(b *core.Binding) []string {
	series := []string{"constraint.check sat", "constraint.check unsat", "validate.runs"}
	for _, n := range []string{b.Operator.Name, b.Variant.Name} {
		series = append(series, "interp.run "+n, "interp.run.err "+n, "interp.steps samples "+n)
	}
	return series
}

// validationCounters reads the series counterSeries names from the
// process registry.
func validationCounters(b *core.Binding) []uint64 {
	reg := obs.Default()
	v := []uint64{
		reg.Counter("constraint.check", "sat"),
		reg.Counter("constraint.check", "unsat"),
		reg.Counter("validate.runs", b.Instruction+"/"+b.Operation),
	}
	for _, n := range []string{b.Operator.Name, b.Variant.Name} {
		v = append(v, reg.Counter("interp.run", n), reg.Counter("interp.run.err", n), stepSamples(reg, n))
	}
	return v
}

// cancelling returns a context and a generator that draws from gen and,
// on its at-th call (never when at is 0), cancels the context after the
// draw: the round in progress still runs, and the next one is refused.
func cancelling(gen core.InputGen, at int) (context.Context, core.InputGen) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	return ctx, func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
		calls++
		if calls == at {
			cancel()
		}
		return gen(rng, in, mem)
	}
}

type tally struct {
	runs, errs map[string]uint64 // by description name
	sat, unsat uint64
}

// recount replays a validation's inputs from its seed, one input at a
// time with fresh interpreter runs, and counts what the validation must
// have recorded. It stops where the validation stops: at a cancelled
// context, a failed run or a refuted input.
func recount(t *testing.T, ctx context.Context, b *core.Binding, gen core.InputGen, rounds int, seed int64) tally {
	t.Helper()
	tl := tally{runs: map[string]uint64{}, errs: map[string]uint64{}}
	rng := rand.New(rand.NewSource(seed))
	env := map[string]uint64{}
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		mem := &interp.Image{}
		in := gen(rng, nil, mem)
		for i, name := range b.OpInputs {
			env[name], env[b.InsInputs[i]] = in[i], in[i]
		}
		ok := true
		for _, c := range b.Constraints {
			if _, present := env[c.Operand]; c.Kind != constraint.Predicate && !present {
				continue
			}
			holds, err := c.Satisfied(env)
			if err != nil {
				t.Fatal(err)
			}
			if !holds {
				tl.unsat++
				ok = false
				break
			}
			tl.sat++
		}
		if !ok {
			continue
		}
		var outs [2][]uint64
		var sts [2]*interp.State
		failed := false
		for i, d := range []*isps.Description{b.Operator, b.Variant} {
			sts[i] = &interp.State{Base: mem}
			res, err := interp.Run(ctx, d, in, sts[i], 0)
			if err != nil {
				tl.errs[d.Name]++
				failed = true
				continue
			}
			tl.runs[d.Name]++
			outs[i] = res.Outputs
		}
		written := append(slices.Clone(sts[0].Written()), sts[1].Written()...)
		if failed || !slices.Equal(outs[0], outs[1]) || !sameMemory(sts[0], sts[1], written) {
			break
		}
	}
	return tl
}

// TestSameWritesMatchesFullCompare: validation's memory verdict, which
// compares the two sides only at the addresses they logged, must equal a
// compare of the two full memories at every address either side can have
// written. Two states, reset between rounds as validation resets them,
// each write a few bytes over one base image at addresses on both sides of
// 64 KiB, 2^32 and 2^64: the base's own value, 0 (where the base may have
// no byte), small values, and often one address twice.
func TestSameWritesMatchesFullCompare(t *testing.T) {
	addrs := []uint64{0, 1, 255, 256, 65534, 65535, 65536, 65537,
		1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, ^uint64(1), ^uint64(0)}
	const rounds = 3000
	rng := rand.New(rand.NewSource(1))
	var base interp.Image
	a, b := interp.State{Base: &base}, interp.State{Base: &base}
	differ := 0
	for round := 0; round < rounds; round++ {
		base.Reset()
		for _, k := range addrs {
			if rng.Intn(2) == 0 {
				base.Store(k, byte(1+rng.Intn(3)))
			}
		}
		a.ResetMem()
		b.ResetMem()
		for _, st := range []*interp.State{&a, &b} {
			for n := rng.Intn(7); n > 0; n-- {
				k := addrs[rng.Intn(len(addrs))]
				v := byte(rng.Intn(4))
				if rng.Intn(2) == 0 {
					v = base.Load(k)
				}
				st.Store(k, v)
			}
		}
		want := sameMemory(&a, &b, addrs)
		if got := core.SameWrites(&a, &b); got != want {
			t.Fatalf("round %d: sameWrites %v, full compare %v (base written at %v, states at %v and %v)",
				round, got, want, base.Written(), a.Written(), b.Written())
		}
		if !want {
			differ++
		}
	}
	if differ == 0 || differ == rounds {
		t.Errorf("%d of %d rounds differ: the rounds do not exercise both verdicts", differ, rounds)
	}
}

// sameMemory compares two final memories over one base at every address
// in addrs.
func sameMemory(a, b *interp.State, addrs []uint64) bool {
	for _, k := range addrs {
		if a.Load(k) != b.Load(k) {
			return false
		}
	}
	return true
}

// stepSamples is the number of interp.steps samples recorded for a
// description.
func stepSamples(reg *obs.Registry, name string) uint64 {
	for _, h := range reg.Snapshot().Histograms {
		if h.Metric == "interp.steps" && h.Label == name {
			return h.Count
		}
	}
	return 0
}
