package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"extra/internal/constraint"
	"extra/internal/core"
	"extra/internal/interp"
	"extra/internal/proofs"
)

// verdict is what one validation decided: the inputs it checked, its
// error, and how far it moved each of counterSeries' registry series.
type verdict struct {
	checked  int
	err      error
	counters []uint64
}

// validate runs one validation of b on gen and returns its verdict; the
// context is cancelled on the cancelAt-th generator call (never when 0).
func validate(b *core.Binding, gen core.InputGen, cancelAt, rounds int, seed int64) verdict {
	before := validationCounters(b)
	ctx, gen := cancelling(gen, cancelAt)
	n, err := core.ValidateBindingCtx(ctx, b, gen, rounds, seed)
	v := verdict{checked: n, err: err, counters: validationCounters(b)}
	for i := range v.counters {
		v.counters[i] -= before[i]
	}
	return v
}

// mapped draws each input of gen on a fresh image and returns it as a map:
// the path a map generator takes through a validation, on images no
// earlier round or validation filled.
func mapped(gen core.InputGen) func(*rand.Rand) ([]uint64, map[uint64]byte) {
	return func(rng *rand.Rand) ([]uint64, map[uint64]byte) {
		var img interp.Image
		in := gen(rng, nil, &img)
		mem := make(map[uint64]byte, len(img.Written()))
		for _, a := range img.Written() {
			mem[a] = img.Load(a)
		}
		return in, mem
	}
}

// TestRecycledImagesDecideAsFresh: a validation draws every input into one
// operand buffer and one image that it resets each round and that later
// validations take from a pool. For every catalog binding, a refuted
// binding and a cancelled validation, validating on the generator directly
// must decide exactly what the same validation decides when each input is
// drawn on a fresh image and handed over as a map: the same checked count,
// error text and registry counters. The direct runs must also decide what
// each case is: the catalog passes, the corrupted binding is refuted and
// the cancelled validation is cancelled. Where nothing cancels,
// ValidateBinding given the map generator must decide the same as well.
func TestRecycledImagesDecideAsFresh(t *testing.T) {
	type tc struct {
		name     string
		b        *core.Binding
		gen      core.InputGen
		cancelAt int
		want     func(error) bool
	}
	var cases []tc
	for _, a := range append(proofs.Table2(), proofs.Extensions()...) {
		cases = append(cases, tc{a.Instruction + "/" + a.Operator, bindingOf(t, a), a.Gen, 0,
			func(err error) bool { return err == nil }})
	}
	sassign := proofs.Movc3PascalExtended()
	cases = append(cases,
		tc{"refuted", corruptMovsb(t), proofs.MovsbPascal().Gen, 0, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "final memories differ")
		}},
		tc{"cancelled", bindingOf(t, sassign), sassign.Gen, 40, func(err error) bool {
			return errors.Is(err, context.Canceled)
		}})
	const rounds = 300
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seed := int64(i + 1)
			fresh := validate(c.b, core.MapGen(mapped(c.gen)), c.cancelAt, rounds, seed)
			recycled := validate(c.b, c.gen, c.cancelAt, rounds, seed)
			if recycled.checked != fresh.checked || fmt.Sprint(recycled.err) != fmt.Sprint(fresh.err) {
				t.Errorf("recycled images: %d checked, error %v; fresh images: %d checked, error %v",
					recycled.checked, recycled.err, fresh.checked, fresh.err)
			}
			series := counterSeries(c.b)
			for k := range series {
				if recycled.counters[k] != fresh.counters[k] {
					t.Errorf("%s: recycled images moved it %d, fresh images %d",
						series[k], recycled.counters[k], fresh.counters[k])
				}
			}
			if !c.want(recycled.err) {
				t.Errorf("validation on recycled images returned %v", recycled.err)
			}
			if c.cancelAt == 0 {
				n, err := core.ValidateBinding(c.b, mapped(c.gen), rounds, seed)
				if n != recycled.checked || fmt.Sprint(err) != fmt.Sprint(recycled.err) {
					t.Errorf("ValidateBinding on a map generator: %d checked, error %v; recycled images: %d, %v",
						n, err, recycled.checked, recycled.err)
				}
			}
		})
	}
}

// TestRoundsStartEmpty: every generator call gets an empty operand buffer
// and an empty image, whatever came before it: a checked round, a round
// the constraints skipped, or the last round of a validation that was
// cancelled and put its scratch back for the next validation to take. A
// generator that counts the calls handed anything else must count none
// over three validations of movc3/sassign, one of them cancelled part way,
// with a range constraint on its length that skips about half the rounds.
// The random source comes back with the scratch too, so each validation
// after the cancelled one must draw the operands a fresh source seeded
// alike draws.
func TestRoundsStartEmpty(t *testing.T) {
	sassign := proofs.Movc3PascalExtended()
	b := *bindingOf(t, sassign)
	b.Constraints = append(slices.Clone(b.Constraints), constraint.NewRange(b.OpInputs[0], 0, 5, "skips rounds"))
	calls, dirty := 0, 0
	var drawn [][]uint64
	var strict core.InputGen = func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
		calls++
		if len(in) != 0 || len(mem.Written()) != 0 {
			dirty++
		}
		in = sassign.Gen(rng, in, mem)
		drawn = append(drawn, slices.Clone(in))
		return in
	}
	const rounds = 300
	ctx, gen := cancelling(strict, 40)
	if _, err := core.ValidateBindingCtx(ctx, &b, gen, rounds, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled validation returned %v", err)
	}
	for seed := int64(2); seed <= 3; seed++ {
		drawn = nil
		n, err := core.ValidateBinding(&b, strict, rounds, seed)
		if err != nil || n == 0 || n == rounds {
			t.Fatalf("seed %d: %d of %d rounds checked, error %v; want some checked and some skipped", seed, n, rounds, err)
		}
		rng := rand.New(rand.NewSource(seed))
		for r, got := range drawn {
			var img interp.Image
			if want := sassign.Gen(rng, nil, &img); !slices.Equal(got, want) {
				t.Fatalf("seed %d, round %d: drew %v, a fresh source draws %v", seed, r, got, want)
			}
		}
	}
	if want := 40 + 2*rounds; calls != want || dirty != 0 {
		t.Errorf("%d generator calls, %d handed a non-empty buffer or image; want %d calls, none", calls, dirty, want)
	}
}

// TestConcurrentValidationsSharePool: batch -jobs and serve -validate run
// validations from several goroutines at once, and they all take their
// operand buffers, images and states from one pool and put them back. Four goroutines validating the whole
// catalog at once, each starting at a different binding, must each find
// what a serial run finds: the same checked count and error per binding.
func TestConcurrentValidationsSharePool(t *testing.T) {
	all := append(proofs.Table2(), proofs.Extensions()...)
	binds := make([]*core.Binding, len(all))
	for i, a := range all {
		binds[i] = bindingOf(t, a)
	}
	const rounds = 200
	type result struct {
		n   int
		err error
	}
	run := func(i int) result {
		n, err := core.ValidateBinding(binds[i], all[i].Gen, rounds, int64(i+1))
		return result{n, err}
	}
	serial := make([]result, len(all))
	for i, a := range all {
		if serial[i] = run(i); serial[i].err != nil {
			t.Fatalf("serial run, %s/%s: %v", a.Instruction, a.Operator, serial[i].err)
		}
	}
	const workers = 4
	got := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]result, len(all))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range all {
				i := (k + w*len(all)/workers) % len(all)
				got[w][i] = run(i)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, r := range got[w] {
			s := serial[i]
			if r.n != s.n || fmt.Sprint(r.err) != fmt.Sprint(s.err) {
				t.Errorf("goroutine %d, %s/%s: %d checked, error %v; serial run %d, %v",
					w, all[i].Instruction, all[i].Operator, r.n, r.err, s.n, s.err)
			}
		}
	}
}
