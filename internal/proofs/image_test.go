package proofs

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"extra/internal/core"
)

// keepsImage reports how gen breaks the rule that a generator returns an
// image it does not keep: at each of a few seeds, two calls on equally
// seeded sources must return two different maps, and clearing the first
// must leave the second as it was. At least one seed must draw a nonempty
// image, or clearing shows nothing.
func keepsImage(gen core.InputGen) error {
	drawn := false
	for seed := int64(1); seed <= 8; seed++ {
		_, first := gen(rand.New(rand.NewSource(seed)))
		_, second := gen(rand.New(rand.NewSource(seed)))
		if reflect.ValueOf(first).UnsafePointer() == reflect.ValueOf(second).UnsafePointer() {
			return fmt.Errorf("seed %d: two calls returned one map", seed)
		}
		want := maps.Clone(second)
		clear(first)
		if !maps.Equal(second, want) {
			return fmt.Errorf("seed %d: clearing the first image changed the second", seed)
		}
		drawn = drawn || len(want) > 0
	}
	if !drawn {
		return fmt.Errorf("no seed drew a nonempty image")
	}
	return nil
}

// TestGeneratorsGiveUpTheirImages: validation clears every image a
// generator returns and hands it to a later NewImage, so no catalog
// generator may keep one. A generator that keeps its image and returns it
// again, refilled, must be caught.
func TestGeneratorsGiveUpTheirImages(t *testing.T) {
	for _, a := range append(Table2(), Extensions()...) {
		if err := keepsImage(a.Gen); err != nil {
			t.Errorf("%s/%s: %v", a.Instruction, a.Operator, err)
		}
	}
	gen := TrXlate().Gen
	var kept map[uint64]byte
	keeper := func(rng *rand.Rand) ([]uint64, map[uint64]byte) {
		in, mem := gen(rng)
		if kept == nil {
			kept = map[uint64]byte{}
		}
		clear(kept)
		maps.Copy(kept, mem)
		return in, kept
	}
	if keepsImage(keeper) == nil {
		t.Error("a generator that keeps its image passed")
	}
}
