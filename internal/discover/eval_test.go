package discover

import (
	"sync"
	"testing"

	"extra/internal/codegen"
	"extra/internal/core"
)

// TestEvalSavingsConcurrent: two found candidates on one emitter key
// evaluated at once — movsb as Pascal sassign with the catalog's real
// binding, movsb as PL/1 smove with an unusable (nil) one — must each get
// the savings they get alone, not the other's override.
func TestEvalSavingsConcurrent(t *testing.T) {
	bs, err := codegen.Bindings()
	if err != nil {
		t.Fatal(err)
	}
	movsb := bs["Intel 8086/movsb/sassign"]
	if movsb == nil {
		t.Fatal("no catalog binding for Intel 8086/movsb/sassign")
	}
	sassign := Candidate{Machine: "Intel 8086", Instruction: "movsb", Language: "Pascal", Operation: "string move", Operator: "sassign"}
	smove := Candidate{Machine: "Intel 8086", Instruction: "movsb", Language: "PL/1", Operation: "string move", Operator: "smove"}
	savings := func(c Candidate, b *core.Binding) int64 {
		var r Result
		evalSavings(c, b, &r)
		return r.SavingsCycles
	}
	want := [2]int64{savings(sassign, movsb), savings(smove, nil)}
	if want[0] <= 0 || want[1] != 0 {
		t.Fatalf("savings alone: %v, want a positive saving for the real binding and 0 for the nil one", want)
	}
	for round := 0; round < 200; round++ {
		var got [2]int64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); got[0] = savings(sassign, movsb) }()
		go func() { defer wg.Done(); got[1] = savings(smove, nil) }()
		wg.Wait()
		if got != want {
			t.Fatalf("round %d: concurrent savings %v, want %v", round, got, want)
		}
	}
}
