package proofs

import (
	"encoding/json"
	"testing"

	"extra/internal/core"
	"extra/internal/isps"
)

// fig4Golden is the paper's figure 4 — the simplified scasb after rf, rfz
// and df are fixed — as this reproduction's scripts must produce it
// mechanically.
const fig4Golden = `scasb.instruction := begin
** SOURCE.ACCESS **
  di<15:0>,
  cx<15:0>,
  fetch()<7:0> := begin
    fetch <- Mb[di];
    di <- di + 1;
  end
** STATE **
  zf<>,
  al<7:0>
** STRING.PROCESS **
  scasb.execute := begin
    input (zf, di, cx, al);
    repeat
      exit_when (cx = 0);
      cx <- cx - 1;
      if al - fetch() = 0
      then
        zf <- 1;
      else
        zf <- 0;
      end_if;
      exit_when (zf);
    end_repeat;
    output (zf, di, cx);
  end
end`

// fig5Golden is the paper's figure 5 — the augmented scasb: zf cleared and
// the start address saved in the prologue, the index computed in the
// epilogue.
const fig5Golden = `scasb.instruction := begin
** SOURCE.ACCESS **
  di<15:0>,
  cx<15:0>,
  fetch()<7:0> := begin
    fetch <- Mb[di];
    di <- di + 1;
  end
** STATE **
  zf<>,
  al<7:0>,
  temp<15:0>
** STRING.PROCESS **
  scasb.execute := begin
    input (di, cx, al);
    zf <- 0;
    temp <- di;
    repeat
      exit_when (cx = 0);
      cx <- cx - 1;
      if al - fetch() = 0
      then
        zf <- 1;
      else
        zf <- 0;
      end_if;
      exit_when (zf);
    end_repeat;
    if zf
    then
      output (di - temp);
    else
      output (0);
    end_if;
  end
end`

// stripComments clears declaration comments so golden comparison is purely
// structural (comments are presentation, the paper's figures vary theirs).
func stripComments(d *isps.Description) *isps.Description {
	c := isps.MustParse(isps.Format(d))
	for _, s := range c.Sections {
		for _, dec := range s.Decls {
			switch x := dec.(type) {
			case *isps.RegDecl:
				x.Comment = ""
			case *isps.FuncDecl:
				x.Comment = ""
			}
		}
	}
	return c
}

// TestFiguresMatchGolden pins the mechanically produced figures 4 and 5 to
// the paper's listings.
func TestFiguresMatchGolden(t *testing.T) {
	s, _, err := ScasbRigel().Run()
	if err != nil {
		t.Fatal(err)
	}
	snaps := s.Snapshots()
	for _, tc := range []struct {
		label  string
		golden string
	}{
		{"fig4", fig4Golden},
		{"fig5", fig5Golden},
	} {
		want := isps.MustParse(tc.golden)
		got := stripComments(snaps[tc.label])
		if !isps.Equal(stripComments(want), got) {
			t.Errorf("%s does not match the paper's figure:\n--- produced ---\n%s--- golden ---\n%s",
				tc.label, isps.Format(got), isps.Format(want))
		}
	}
}

// TestTable2StepCountsGolden pins the reproduction's step counts (the
// numbers EXPERIMENTS.md reports); a script change that shifts them should
// be deliberate.
func TestTable2StepCountsGolden(t *testing.T) {
	want := map[string]int{
		"movsb/sassign":  25,
		"movsb/smove":    28,
		"scasb/index":    38,
		"scasb/indexc":   42,
		"cmpsb/scompare": 50,
		"movc3/blkcpy":   4,
		"movc5/blkclr":   12,
		"locc/index":     13,
		"locc/indexc":    11,
		"cmpc3/scompare": 11,
		"mvc/sassign":    9,
	}
	for _, a := range Table2() {
		key := a.Instruction + "/" + a.Operator
		_, b, err := a.Run()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if b.Steps != want[key] {
			t.Errorf("%s: %d steps, EXPERIMENTS.md records %d — update both deliberately",
				key, b.Steps, want[key])
		}
	}
}

// TestScasbConstraintInventory pins the full constraint set of the flagship
// binding.
func TestScasbConstraintInventory(t *testing.T) {
	_, b, err := ScasbRigel().Run()
	if err != nil {
		t.Fatal(err)
	}
	var values, ranges int
	for _, c := range b.Constraints {
		switch {
		case c.Operand == "rf" && c.Val == 1,
			c.Operand == "rfz" && c.Val == 0,
			c.Operand == "df" && c.Val == 0:
			values++
		case c.Operand == "Src.Base" && c.Max == 65535,
			c.Operand == "Src.Length" && c.Max == 65535:
			ranges++
		}
	}
	if values != 3 || ranges != 2 {
		t.Errorf("constraint inventory: %d value + %d range, want 3 + 2:\n%v",
			values, ranges, b.Constraints)
	}
	if len(b.Prologue) != 2 || len(b.Epilogue) != 1 {
		t.Errorf("augments: %d prologue + %d epilogue, want 2 + 1", len(b.Prologue), len(b.Epilogue))
	}
	if len(b.RemovedOutputs) == 0 {
		t.Error("original outputs not recorded")
	}
}

// TestBindingJSONRoundTrip exercises the compiler-interface document (the
// paper's future-work item 2): every analysis's binding survives a
// serialize/parse round trip, and the reloaded binding still validates
// differentially.
func TestBindingJSONRoundTrip(t *testing.T) {
	for _, a := range append(Table2(), Extensions()...) {
		_, b, err := a.Run()
		if err != nil {
			t.Fatalf("%s/%s: %v", a.Instruction, a.Operator, err)
		}
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("%s/%s: marshal: %v", a.Instruction, a.Operator, err)
		}
		var back core.Binding
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s/%s: unmarshal: %v", a.Instruction, a.Operator, err)
		}
		if back.Steps != b.Steps || len(back.Constraints) != len(b.Constraints) ||
			len(back.OpInputs) != len(b.OpInputs) {
			t.Fatalf("%s/%s: round trip lost fields", a.Instruction, a.Operator)
		}
		if !isps.Equal(back.Variant, b.Variant) || !isps.Equal(back.Operator, b.Operator) {
			t.Fatalf("%s/%s: descriptions changed in round trip", a.Instruction, a.Operator)
		}
		if _, err := core.ValidateBinding(&back, a.Gen, 60, 21); err != nil {
			t.Fatalf("%s/%s: reloaded binding fails validation: %v", a.Instruction, a.Operator, err)
		}
	}
}
