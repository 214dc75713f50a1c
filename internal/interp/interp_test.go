package interp

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
)

func run(t *testing.T, d *isps.Description, inputs []uint64, st *State) *Result {
	t.Helper()
	if err := isps.Validate(d); err != nil {
		t.Fatalf("Validate(%s): %v", d.Name, err)
	}
	res, err := Run(context.Background(), d, inputs, st, 0)
	if err != nil {
		t.Fatalf("Run(%s): %v", d.Name, err)
	}
	return res
}

func TestCorpusValidates(t *testing.T) {
	for _, e := range machines.All() {
		d, err := isps.Parse(e.Source)
		if err != nil {
			t.Errorf("%s/%s: parse: %v", e.Machine, e.Instruction, err)
			continue
		}
		if err := isps.Validate(d); err != nil {
			t.Errorf("%s/%s: validate: %v", e.Machine, e.Instruction, err)
		}
	}
	for _, e := range langops.All() {
		d, err := isps.Parse(e.Source)
		if err != nil {
			t.Errorf("%s/%s: parse: %v", e.Language, e.Name, err)
			continue
		}
		if err := isps.Validate(d); err != nil {
			t.Errorf("%s/%s: validate: %v", e.Language, e.Name, err)
		}
	}
}

func TestRigelIndex(t *testing.T) {
	cases := []struct {
		s    string
		ch   byte
		want uint64 // 1-based index, 0 when absent
	}{
		{"hello", 'h', 1},
		{"hello", 'l', 3},
		{"hello", 'o', 5},
		{"hello", 'x', 0},
		{"", 'a', 0},
		{"aaa", 'a', 1},
	}
	for _, c := range cases {
		d := langops.Get("index")
		st := NewState()
		st.SetString(100, c.s)
		res := run(t, d, []uint64{100, uint64(len(c.s)), uint64(c.ch)}, st)
		if len(res.Outputs) != 1 || res.Outputs[0] != c.want {
			t.Errorf("index(%q, %q) outputs = %v, want [%d]", c.s, c.ch, res.Outputs, c.want)
		}
	}
}

// scasbRef mirrors what 8086 "repne scasb" leaves in zf, di and cx when
// started at address addr with count n searching for ch.
func scasbRef(mem map[uint64]byte, addr, n uint64, ch byte) (zf, di, cx uint64) {
	di = addr
	cx = n
	for cx != 0 {
		cx = (cx - 1) & 0xffff
		m := mem[di]
		di = (di + 1) & 0xffff
		if m == ch {
			zf = 1
			return
		}
		zf = 0
	}
	return
}

func TestScasbRepeatMode(t *testing.T) {
	cases := []struct {
		s  string
		ch byte
	}{
		{"hello", 'l'}, {"hello", 'x'}, {"", 'q'}, {"abc", 'c'}, {"aaa", 'a'},
	}
	for _, c := range cases {
		d := machines.Get("scasb")
		st := NewState()
		st.SetString(200, c.s)
		// input (rf, rfz, df, zf, di, cx, al): rf=1 rfz=0 df=0 zf=0.
		res := run(t, d, []uint64{1, 0, 0, 0, 200, uint64(len(c.s)), uint64(c.ch)}, st)
		wzf, wdi, wcx := scasbRef(st.Mem, 200, uint64(len(c.s)), c.ch)
		if len(res.Outputs) != 3 || res.Outputs[0] != wzf || res.Outputs[1] != wdi || res.Outputs[2] != wcx {
			t.Errorf("scasb(%q, %q) = %v, want [%d %d %d]", c.s, c.ch, res.Outputs, wzf, wdi, wcx)
		}
	}
}

func TestScasbSingleStep(t *testing.T) {
	d := machines.Get("scasb")
	st := NewState()
	st.Mem[50] = 'x'
	// rf = 0: no repetition; compares one byte only.
	res := run(t, d, []uint64{0, 0, 0, 0, 50, 9, 'x'}, st)
	if res.Outputs[0] != 1 {
		t.Errorf("zf = %d, want 1", res.Outputs[0])
	}
	if res.Outputs[1] != 51 {
		t.Errorf("di = %d, want 51", res.Outputs[1])
	}
	if res.Outputs[2] != 9 {
		t.Errorf("cx = %d, want 9 (unchanged without rf)", res.Outputs[2])
	}
	// Direction flag set: di steps down.
	st2 := NewState()
	st2.Mem[50] = 'y'
	res2 := run(t, d, []uint64{0, 0, 1, 0, 50, 9, 'x'}, st2)
	if res2.Outputs[0] != 0 || res2.Outputs[1] != 49 {
		t.Errorf("df=1: outputs = %v, want zf=0 di=49", res2.Outputs)
	}
}

func TestScasbMatchesReferenceQuick(t *testing.T) {
	f := func(s []byte, ch byte, off uint16) bool {
		if len(s) > 300 {
			s = s[:300]
		}
		addr := uint64(1000 + off%100)
		d := machines.Get("scasb")
		st := NewState()
		st.SetString(addr, string(s))
		res, err := Run(context.Background(), d, []uint64{1, 0, 0, 0, addr, uint64(len(s)), uint64(ch)}, st, 0)
		if err != nil {
			return false
		}
		wzf, wdi, wcx := scasbRef(st.Mem, addr, uint64(len(s)), ch)
		return len(res.Outputs) == 3 && res.Outputs[0] == wzf && res.Outputs[1] == wdi && res.Outputs[2] == wcx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPascalSassign(t *testing.T) {
	d := langops.Get("sassign")
	st := NewState()
	st.SetString(10, "copyme")
	run(t, d, []uint64{500, 10, 6}, st)
	if got := st.ReadString(500, 6); got != "copyme" {
		t.Errorf("destination = %q", got)
	}
	if got := st.ReadString(10, 6); got != "copyme" {
		t.Errorf("source clobbered: %q", got)
	}
	// Zero length moves nothing.
	st2 := NewState()
	st2.SetString(10, "x")
	run(t, d, []uint64{500, 10, 0}, st2)
	if st2.Mem[500] != 0 {
		t.Error("zero-length sassign wrote to destination")
	}
}

func TestMvcMovesLenPlusOne(t *testing.T) {
	d := machines.Get("mvc")
	st := NewState()
	st.SetString(10, "abcdef")
	// len code 2 moves 3 bytes.
	run(t, d, []uint64{700, 10, 2}, st)
	if got := st.ReadString(700, 4); got != "abc\x00" {
		t.Errorf("mvc moved %q, want %q", got, "abc\x00")
	}
	// len code 0 still moves one byte: the paper's off-by-one quirk.
	st2 := NewState()
	st2.Mem[10] = 'z'
	run(t, d, []uint64{700, 10, 0}, st2)
	if st2.Mem[700] != 'z' {
		t.Error("mvc with len=0 did not move a byte")
	}
}

func TestMovc3OverlapProtection(t *testing.T) {
	d := machines.Get("movc3")
	// Overlapping forward move: src=10 dst=12, "abc" must end up intact.
	st := NewState()
	st.SetString(10, "abc")
	run(t, d, []uint64{3, 10, 12}, st)
	if got := st.ReadString(12, 3); got != "abc" {
		t.Errorf("overlapping movc3 produced %q, want %q (overlap guard broken)", got, "abc")
	}
	// Overlapping backward move: src=12 dst=10.
	st2 := NewState()
	st2.SetString(12, "xyz")
	run(t, d, []uint64{3, 12, 10}, st2)
	if got := st2.ReadString(10, 3); got != "xyz" {
		t.Errorf("backward overlapping movc3 produced %q", got)
	}
}

func TestMovc5FillsRemainder(t *testing.T) {
	d := machines.Get("movc5")
	st := NewState()
	st.SetString(10, "ab")
	// input (srclen, src, fill, dstlen, dst): move 2, fill 3 with '*'.
	run(t, d, []uint64{2, 10, '*', 5, 600}, st)
	if got := st.ReadString(600, 5); got != "ab***" {
		t.Errorf("movc5 produced %q, want %q", got, "ab***")
	}
	// Pure fill with srclen = 0 (the simplification used for blkclr).
	st2 := NewState()
	run(t, d, []uint64{0, 0, 0, 4, 600}, st2)
	if got := st2.ReadString(600, 4); got != "\x00\x00\x00\x00" {
		t.Errorf("movc5 pure fill produced %q", got)
	}
}

func TestLocc(t *testing.T) {
	d := machines.Get("locc")
	st := NewState()
	st.SetString(40, "series")
	// input (char, r0, r1).
	res := run(t, d, []uint64{'i', 6, 40}, st)
	// 'i' is at index 3 (0-based): r1 = 43, r0 = remaining incl. found = 3.
	if res.Outputs[0] != 3 || res.Outputs[1] != 43 {
		t.Errorf("locc outputs = %v, want [3 43]", res.Outputs)
	}
	res2 := run(t, langops.Get("index"), []uint64{40, 6, 'i'}, st)
	if res2.Outputs[0] != 4 {
		t.Errorf("rigel index = %v, want [4]", res2.Outputs)
	}
}

func TestCmpc3AndScompareAgree(t *testing.T) {
	pairs := []struct{ a, b string }{
		{"same", "same"}, {"same", "samx"}, {"", ""}, {"a", "b"}, {"ab", "ab"},
	}
	for _, p := range pairs {
		st := NewState()
		st.SetString(10, p.a)
		st.SetString(300, p.b)
		res := run(t, machines.Get("cmpc3"), []uint64{uint64(len(p.a)), 10, 300}, st)
		insEqual := res.Outputs[0] == 0 // r0 = 0 means equal
		res2 := run(t, langops.Get("scompare"), []uint64{10, 300, uint64(len(p.a))}, st)
		opEqual := res2.Outputs[0] == 1
		if insEqual != opEqual {
			t.Errorf("cmpc3 vs scompare disagree on (%q,%q): %v vs %v", p.a, p.b, insEqual, opEqual)
		}
	}
}

func TestCmpsbRepeMode(t *testing.T) {
	// rfz = 1 selects "repeat while equal" (repe): zf = 1 on exit iff the
	// strings are equal over the full count.
	pairs := []struct {
		a, b string
		want uint64
	}{
		{"same", "same", 1}, {"same", "samx", 0}, {"a", "b", 0}, {"ab", "ab", 1},
	}
	for _, p := range pairs {
		st := NewState()
		st.SetString(10, p.a)
		st.SetString(300, p.b)
		// input (rf, rfz, df, zf, si, di, cx); zf preloaded 1 so empty
		// strings compare equal.
		res := run(t, machines.Get("cmpsb"), []uint64{1, 1, 0, 1, 10, 300, uint64(len(p.a))}, st)
		if res.Outputs[0] != p.want {
			t.Errorf("cmpsb(%q,%q) zf = %d, want %d", p.a, p.b, res.Outputs[0], p.want)
		}
	}
}

func TestMovsbAndSmoveAgree(t *testing.T) {
	for _, s := range []string{"", "x", "block of text"} {
		st := NewState()
		st.SetString(10, s)
		// movsb: input (rf, df, si, di, cx).
		run(t, machines.Get("movsb"), []uint64{1, 0, 10, 400, uint64(len(s))}, st)
		st2 := NewState()
		st2.SetString(10, s)
		run(t, langops.Get("smove"), []uint64{400, 10, uint64(len(s))}, st2)
		if a, b := st.ReadString(400, len(s)+1), st2.ReadString(400, len(s)+1); a != b {
			t.Errorf("movsb %q vs smove %q for source %q", a, b, s)
		}
	}
}

func TestB4800ListSearch(t *testing.T) {
	d := machines.Get("lss")
	st := NewState()
	// Record layout: link at +0, key at +1. List: 20 -> 30 -> 40 -> nil.
	st.Mem[20], st.Mem[21] = 30, 'a'
	st.Mem[30], st.Mem[31] = 40, 'b'
	st.Mem[40], st.Mem[41] = 0, 'c'
	res := run(t, d, []uint64{20, 1, 'b'}, st)
	if res.Outputs[0] != 30 {
		t.Errorf("lss found %d, want 30", res.Outputs[0])
	}
	res2 := run(t, d, []uint64{20, 1, 'z'}, st)
	if res2.Outputs[0] != 0 {
		t.Errorf("lss found %d, want 0 (absent key)", res2.Outputs[0])
	}
}

func TestEclipseCmvBothDirections(t *testing.T) {
	d := machines.Get("cmv")
	st := NewState()
	st.SetString(10, "fwd")
	run(t, d, []uint64{10, 800, 3}, st)
	if got := st.ReadString(800, 3); got != "fwd" {
		t.Errorf("forward cmv produced %q", got)
	}
	// Negative length (two's complement 16-bit): move backwards from the
	// high end.
	st2 := NewState()
	st2.SetString(10, "rev")
	neg3 := uint64(0x10000 - 3)
	run(t, d, []uint64{12, 802, neg3}, st2)
	if got := st2.ReadString(800, 3); got != "rev" {
		t.Errorf("backward cmv produced %q", got)
	}
}

func TestStepLimit(t *testing.T) {
	src := `d.operation := begin
** S **
  x: integer,
  d.execute := begin
    repeat
      x <- x + 1;
      exit_when (x = 0);
      x <- x - 1;
    end_repeat;
  end
end`
	d := isps.MustParse(src)
	_, err := Run(context.Background(), d, nil, NewState(), 1000)
	if err != ErrStepLimit {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestAssertFailure(t *testing.T) {
	src := `d.operation := begin
** S **
  x: integer,
  d.execute := begin
    input (x);
    assert (x > 0);
    output (x);
  end
end`
	d := isps.MustParse(src)
	if _, err := Run(context.Background(), d, []uint64{5}, NewState(), 0); err != nil {
		t.Errorf("assert true: %v", err)
	}
	_, err := Run(context.Background(), d, []uint64{0}, NewState(), 0)
	var ae *AssertError
	if err == nil || !strings.Contains(err.Error(), "assertion failed") {
		t.Errorf("assert false: err = %v", err)
	} else if !asAssert(err, &ae) {
		t.Errorf("error is %T, want *AssertError", err)
	}
}

func asAssert(err error, target **AssertError) bool {
	ae, ok := err.(*AssertError)
	if ok {
		*target = ae
	}
	return ok
}

func TestInputExhaustion(t *testing.T) {
	d := langops.Get("index")
	_, err := Run(context.Background(), d, []uint64{1, 2}, NewState(), 0)
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Errorf("err = %v, want input exhaustion", err)
	}
}

func TestRegisterWidthMasking(t *testing.T) {
	src := `d.operation := begin
** S **
  w<3:0>,
  d.execute := begin
    input (w);
    w <- w + 1;
    output (w);
  end
end`
	d := isps.MustParse(src)
	res, err := Run(context.Background(), d, []uint64{15}, NewState(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 0 {
		t.Errorf("4-bit 15+1 = %d, want 0 (wraparound)", res.Outputs[0])
	}
	// Input is masked on entry too.
	res2, _ := Run(context.Background(), d, []uint64{0xff}, NewState(), 0)
	if res2.Outputs[0] != 0 {
		t.Errorf("masked input: got %d, want 0", res2.Outputs[0])
	}
}

func TestLogicalOperators(t *testing.T) {
	src := `d.operation := begin
** S **
  a: integer, b: integer,
  d.execute := begin
    input (a, b);
    output (a and b, a or b, a xor b, not a);
  end
end`
	d := isps.MustParse(src)
	res, err := Run(context.Background(), d, []uint64{5, 0}, NewState(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 1, 0}
	for i, w := range want {
		if res.Outputs[i] != w {
			t.Errorf("output[%d] = %d, want %d (logical, not bitwise)", i, res.Outputs[i], w)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	src := `d.operation := begin
** S **
  a: integer,
  d.execute := begin
    input (a);
    output (1 / a);
  end
end`
	d := isps.MustParse(src)
	if _, err := Run(context.Background(), d, []uint64{0}, NewState(), 0); err == nil {
		t.Error("division by zero not reported")
	}
	res, err := Run(context.Background(), d, []uint64{2}, NewState(), 0)
	if err != nil || res.Outputs[0] != 0 {
		t.Errorf("1/2 = %v, %v", res, err)
	}
}

func TestFunctionValueIsLastAssignment(t *testing.T) {
	src := `d.operation := begin
** S **
  x: integer,
  f()<7:0> := begin
    f <- x + 1;
    x <- x + 10;
  end
  d.execute := begin
    input (x);
    output (f(), x);
  end
end`
	d := isps.MustParse(src)
	res, err := Run(context.Background(), d, []uint64{5}, NewState(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 6 || res.Outputs[1] != 15 {
		t.Errorf("outputs = %v, want [6 15]", res.Outputs)
	}
}

func TestStateClone(t *testing.T) {
	st := NewState()
	st.Regs["a"] = 1
	st.Mem[5] = 9
	st.Base = map[uint64]byte{5: 1, 6: 7}
	c := st.Clone()
	c.Regs["a"] = 2
	c.Mem[5] = 8
	if st.Regs["a"] != 1 || st.Mem[5] != 9 {
		t.Error("Clone shares storage with original")
	}
	// The read-only base is shared; reads fall back Mem, Base, 0.
	if c.Load(5) != 8 || c.Load(6) != 7 || c.Load(7) != 0 || st.Load(5) != 9 {
		t.Errorf("Load through the overlay: clone %d %d %d, original %d", c.Load(5), c.Load(6), c.Load(7), st.Load(5))
	}
	c.Base[6] = 3
	if st.Load(6) != 3 {
		t.Error("Clone copied the base image instead of sharing it")
	}
}
