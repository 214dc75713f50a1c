package core_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"extra/internal/core"
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

// private hands the validation a copy of each image gen draws, one no
// generator can be given again: what validation decides over images that
// no round before it recycled.
func private(gen core.InputGen) core.InputGen {
	return func(rng *rand.Rand) ([]uint64, map[uint64]byte) {
		in, mem := gen(rng)
		return in, maps.Clone(mem)
	}
}

// TestRecycledImagesDecideAsFresh: a validation clears each round's image
// and returns it to the pool the generators' next NewImage draws from. For
// every catalog binding, a refuted binding and a cancelled validation,
// validating on the generator directly must decide exactly what the same
// validation decides on private copies of its images: the same checked
// count, error text and registry counters. The direct runs must also
// decide what each case is: the catalog passes, the corrupted binding is
// refuted and the cancelled validation is cancelled. Once they have filled
// the pools, NewImage must still hand out empty images.
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
			fresh := validate(c.b, private(c.gen), c.cancelAt, rounds, seed)
			recycled := validate(c.b, c.gen, c.cancelAt, rounds, seed)
			if recycled.checked != fresh.checked || fmt.Sprint(recycled.err) != fmt.Sprint(fresh.err) {
				t.Errorf("recycled images: %d checked, error %v; private images: %d checked, error %v",
					recycled.checked, recycled.err, fresh.checked, fresh.err)
			}
			series := counterSeries(c.b)
			for k := range series {
				if recycled.counters[k] != fresh.counters[k] {
					t.Errorf("%s: recycled images moved it %d, private images %d",
						series[k], recycled.counters[k], fresh.counters[k])
				}
			}
			if !c.want(recycled.err) {
				t.Errorf("validation on recycled images returned %v", recycled.err)
			}
		})
	}
	for n := 0; n <= 266; n++ {
		if m := core.NewImage(n); len(m) != 0 {
			t.Fatalf("NewImage(%d) holds %d bytes, want an empty image", n, len(m))
		}
	}
}

// TestConcurrentValidationsSharePool: batch -jobs and serve -validate run
// validations from several goroutines at once, and they all draw images
// from and recycle them into one pool. Four goroutines validating the whole
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
