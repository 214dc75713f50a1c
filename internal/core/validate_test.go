package core

import (
	"math/rand"
	"strings"
	"testing"

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
	gen := func(rng *rand.Rand) ([]uint64, map[uint64]byte) {
		mem := map[uint64]byte{10: byte(0x80 + rng.Intn(0x80)), 30: 7}
		for a := uint64(20); a < 25; a++ {
			if rng.Intn(2) == 0 {
				mem[a] = byte(rng.Intn(0x80))
			}
		}
		return []uint64{10, uint64(20 + rng.Intn(5))}, mem
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
