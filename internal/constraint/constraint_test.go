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
		if _, err := c.Compile().Satisfied(env); err == nil {
			t.Errorf("malformed predicate %q accepted once compiled", pred)
		}
	}
}

func TestAllSatisfied(t *testing.T) {
	cs := []Constraint{
		NewValue("rf", 1, ""),
		NewBits("Len", 16, ""),
	}
	env := map[string]uint64{"rf": 1, "Len": 70000}
	ok, failed, err := AllSatisfied(cs, env)
	if err != nil {
		t.Fatal(err)
	}
	if ok || failed == nil || failed.Operand != "Len" {
		t.Errorf("ok=%v failed=%v", ok, failed)
	}
	env["Len"] = 5
	ok, _, err = AllSatisfied(cs, env)
	if err != nil || !ok {
		t.Errorf("ok=%v err=%v", ok, err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Value: "value", Range: "range", Offset: "offset", Predicate: "predicate"} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
}
