package constraint

import (
	"strings"
	"testing"
)

func TestValueConstraint(t *testing.T) {
	c := NewValue("df", 0, "direction fixed")
	if ok, _ := c.Satisfied(map[string]uint64{"df": 0}); !ok {
		t.Error("df=0 not satisfied by 0")
	}
	if ok, _ := c.Satisfied(map[string]uint64{"df": 1}); ok {
		t.Error("df=0 satisfied by 1")
	}
	if _, err := c.Satisfied(map[string]uint64{}); err == nil {
		t.Error("missing operand not reported")
	}
	if got := c.String(); !strings.Contains(got, "df = 0") || !strings.Contains(got, "direction fixed") {
		t.Errorf("String = %q", got)
	}
}

func TestRangeAndBits(t *testing.T) {
	c := NewBits("Len", 16, "cx field")
	if c.Min != 0 || c.Max != 65535 {
		t.Errorf("NewBits(16) = [%d, %d]", c.Min, c.Max)
	}
	for _, tc := range []struct {
		v  uint64
		ok bool
	}{{0, true}, {65535, true}, {65536, false}} {
		if ok, _ := c.Satisfied(map[string]uint64{"Len": tc.v}); ok != tc.ok {
			t.Errorf("Len=%d satisfied=%v, want %v", tc.v, ok, tc.ok)
		}
	}
	r := NewRange("Len", 1, 256, "mvc")
	if ok, _ := r.Satisfied(map[string]uint64{"Len": 0}); ok {
		t.Error("below-min satisfied")
	}
	// Degenerate widths fall back to the full range.
	full := NewBits("x", 0, "")
	if full.Max != ^uint64(0) {
		t.Error("NewBits(0) not unbounded")
	}
}

func TestOffsetConstraintIsDirective(t *testing.T) {
	c := NewOffset("Len", -1, "mvc coding")
	ok, err := c.Satisfied(map[string]uint64{})
	if err != nil || !ok {
		t.Errorf("offset constraints are directives: ok=%v err=%v", ok, err)
	}
	if got := c.String(); !strings.Contains(got, "Len-1") {
		t.Errorf("String = %q", got)
	}
}

func TestPredicateConstraint(t *testing.T) {
	c := NewPredicate("(src + len <= dst) or (dst + len <= src)", "no overlap")
	cases := []struct {
		src, dst, len uint64
		ok            bool
	}{
		{0, 100, 10, true},
		{100, 0, 10, true},
		{0, 5, 10, false},
		{5, 0, 10, false},
		{0, 10, 10, true}, // exactly adjacent
	}
	for _, tc := range cases {
		env := map[string]uint64{"src": tc.src, "dst": tc.dst, "len": tc.len}
		ok, err := c.Satisfied(env)
		if err != nil {
			t.Fatalf("src=%d dst=%d len=%d: %v", tc.src, tc.dst, tc.len, err)
		}
		if ok != tc.ok {
			t.Errorf("src=%d dst=%d len=%d: satisfied=%v, want %v", tc.src, tc.dst, tc.len, ok, tc.ok)
		}
	}
	if _, err := c.Satisfied(map[string]uint64{"src": 1}); err == nil {
		t.Error("missing predicate operand not reported")
	}
}

func TestPredicateParseErrors(t *testing.T) {
	env := map[string]uint64{"a": 1, "b": 1}
	for _, pred := range []string{"not a predicate ((", "a, b", "a); output (b", "a); b <- (1"} {
		c := NewPredicate(pred, "")
		if _, err := c.Satisfied(env); err == nil {
			t.Errorf("malformed predicate %q accepted", pred)
		}
		k, ok := c.Compile(map[string]int{"a": 0, "b": 1})
		if !ok {
			t.Fatalf("predicate %q dropped at compile time", pred)
		}
		if _, err := k.Satisfied([]uint64{1, 1}); err == nil {
			t.Errorf("malformed predicate %q accepted once compiled", pred)
		}
	}
}

// TestCompiledReadsPositions: a compiled constraint reads its operands from
// the positions it was compiled with, and agrees with the one-shot
// Constraint.Satisfied on the environment those positions describe. A
// value, range or offset constraint on an operand with no position is
// dropped at compile time; a predicate naming one fails when checked.
func TestCompiledReadsPositions(t *testing.T) {
	pos := map[string]int{"rf": 2, "Len": 0, "src": 1, "dst": 3}
	cs := []Constraint{
		NewValue("rf", 1, ""),
		NewBits("Len", 16, ""),
		NewOffset("Len", -1, ""),
		NewPredicate("(src + Len <= dst) or (dst + Len <= src)", ""),
	}
	for _, in := range [][]uint64{
		{5, 100, 1, 200},
		{70000, 100, 1, 200},
		{5, 100, 0, 200},
		{5, 100, 1, 102},
	} {
		env := map[string]uint64{}
		for name, at := range pos {
			env[name] = in[at]
		}
		for _, c := range cs {
			k, ok := c.Compile(pos)
			if !ok {
				t.Fatalf("%s dropped at compile time", c)
			}
			got, err := k.Satisfied(in)
			want, werr := c.Satisfied(env)
			if err != nil || werr != nil || got != want {
				t.Errorf("%s on %v: compiled %v (%v), one-shot %v (%v)", c, in, got, err, want, werr)
			}
		}
	}
	for _, c := range []Constraint{NewValue("df", 0, ""), NewBits("cx", 16, ""), NewOffset("cx", -1, "")} {
		if _, ok := c.Compile(pos); ok {
			t.Errorf("%s on an operand with no position was not dropped", c)
		}
	}
	k, ok := NewPredicate("src < cx", "").Compile(pos)
	if !ok {
		t.Fatal("predicate dropped at compile time")
	}
	if _, err := k.Satisfied([]uint64{0, 0, 0, 0}); err == nil || !strings.Contains(err.Error(), `no value for operand "cx"`) {
		t.Errorf("predicate on an operand with no position: err = %v", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Value: "value", Range: "range", Offset: "offset", Predicate: "predicate"} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
}
