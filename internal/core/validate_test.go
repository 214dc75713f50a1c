package core

import (
	"math/rand"
	"strings"
	"testing"

	"extra/internal/constraint"
	"extra/internal/interp"
	"extra/internal/isps"
)

// TestValidateMemoryOverlay: both sides run over the generator's image as a
// shared base, so the memory verdict compares writes. It must equal a
// compare of the two full final memories: a write that leaves a byte as
// the image had it is no difference, a write only one side makes is.
func TestValidateMemoryOverlay(t *testing.T) {
	desc := func(body string) *isps.Description {
		return isps.MustParse(`copy.operation := begin
** S **
  s: integer, d: integer,
  copy.execute := begin
    input (s, d);
    ` + body + `
    output (d);
  end
end`)
	}
	op := desc("Mb[d] <- Mb[s];")
	// The image holds a nonzero source byte at 10, zero or small bytes at
	// the destinations 20..24, 7 at 30, and nothing at 40.
	var gen InputGen = func(rng *rand.Rand, in []uint64, mem *interp.Image) []uint64 {
		mem.Store(10, byte(0x80+rng.Intn(0x80)))
		mem.Store(30, 7)
		for a := uint64(20); a < 25; a++ {
			if rng.Intn(2) == 0 {
				mem.Store(a, byte(rng.Intn(0x80)))
			}
		}
		return append(in, 10, uint64(20+rng.Intn(5)))
	}
	for _, tc := range []struct {
		name, variant string
		refuted       bool
	}{
		{"writes the base value back", "Mb[d] <- Mb[s]; Mb[30] <- Mb[30];", false},
		{"writes 0 where the image has no byte", "Mb[d] <- Mb[s]; Mb[40] <- 0;", false},
		{"writes a byte the operator does not", "Mb[d] <- Mb[s]; Mb[30] <- Mb[30] + 1;", true},
		{"leaves a byte the operator changes", "s <- s;", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := &Binding{
				Instruction: "copy", Operation: "copy",
				OpInputs: []string{"s", "d"}, InsInputs: []string{"s", "d"},
				Operator: op, Variant: desc(tc.variant),
			}
			n, err := ValidateBinding(b, gen, 40, 1)
			switch {
			case !tc.refuted && (err != nil || n != 40):
				t.Fatalf("validated %d/40, err %v; want all 40 to pass", n, err)
			case tc.refuted && (err == nil || !strings.Contains(err.Error(), "final memories differ")):
				t.Fatalf("err = %v, want a final-memory refutation", err)
			}
		})
	}
}

// TestConstraintOperandPositions: each constraint reads its operand from
// the generated vector once, at the position its name was bound to. A
// name in both input lists, at different positions, takes the later one,
// as the environment validation once filled in list order held; a
// constraint on an operand neither list carries is dropped. The checked
// count must equal a replay of the generator under that rule.
func TestConstraintOperandPositions(t *testing.T) {
	d := isps.MustParse(`pair.operation := begin
** S **
  a: integer, b: integer,
  pair.execute := begin
    input (a, b);
    output (a, b);
  end
end`)
	b := &Binding{
		Instruction: "pair", Operation: "pair",
		OpInputs: []string{"a", "b"}, InsInputs: []string{"b", "a"},
		Operator: d, Variant: d,
		Constraints: []constraint.Constraint{
			constraint.NewRange("a", 0, 9, ""),
			constraint.NewValue("gone", 1, "no longer an operand"),
		},
	}
	var gen InputGen = func(rng *rand.Rand, in []uint64, _ *interp.Image) []uint64 {
		return append(in, uint64(rng.Intn(20)), uint64(rng.Intn(20)))
	}
	const rounds, seed = 200, 3
	want := 0
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		if in := gen(rng, nil, nil); in[1] <= 9 {
			want++
		}
	}
	n, err := ValidateBinding(b, gen, rounds, seed)
	if err != nil || n != want {
		t.Fatalf("validated %d inputs, err %v; want %d, the inputs whose second operand is at most 9", n, err, want)
	}
}
