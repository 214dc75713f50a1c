package interp_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"extra/internal/interp"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/proofs"
)

// diffRuns runs d through the compiled engine and through the reference
// walker, each on its own copy of st (whose Mem is the whole image), and
// returns the first difference in outputs, steps, error, final registers or
// final memory. A third run compiles d once and executes it over st's
// memory as a read-only Base; its final memory, read through the overlay,
// must equal the reference's too.
func diffRuns(ctx context.Context, d *isps.Description, inputs []uint64, st *interp.State, limit int) string {
	refSt, gotSt := st.Clone(), st.Clone()
	want, wantErr := refRun(ctx, d, inputs, refSt, limit)
	got, gotErr := interp.Run(ctx, d, inputs, gotSt, limit)
	if msg := diffResult(want, wantErr, got, gotErr); msg != "" {
		return msg
	}
	if !reflect.DeepEqual(refSt.Regs, gotSt.Regs) {
		return fmt.Sprintf("final registers: reference %v, compiled %v", refSt.Regs, gotSt.Regs)
	}
	if !reflect.DeepEqual(refSt.Mem, gotSt.Mem) {
		return fmt.Sprintf("final memory: reference %v, compiled %v", refSt.Mem, gotSt.Mem)
	}

	ovSt := &interp.State{Regs: maps.Clone(st.Regs), Mem: map[uint64]byte{}, Base: st.Mem}
	got, gotErr = interp.Compile(d).Run(ctx, inputs, ovSt, limit)
	if msg := diffResult(want, wantErr, got, gotErr); msg != "" {
		return "over a base image: " + msg
	}
	if !reflect.DeepEqual(refSt.Regs, ovSt.Regs) {
		return fmt.Sprintf("over a base image: final registers: reference %v, compiled %v", refSt.Regs, ovSt.Regs)
	}
	for _, m := range []map[uint64]byte{refSt.Mem, ovSt.Mem, st.Mem} {
		for k := range m {
			if refSt.Mem[k] != ovSt.Load(k) {
				return fmt.Sprintf("over a base image: Mb[%d]: reference %d, compiled %d", k, refSt.Mem[k], ovSt.Load(k))
			}
		}
	}
	for k, v := range st.Mem {
		if ovSt.Base[k] != v {
			return fmt.Sprintf("over a base image: the run wrote Mb[%d] into the base", k)
		}
	}
	return ""
}

// sentinels are the errors callers classify with errors.Is.
var sentinels = []error{interp.ErrStepLimit, interp.ErrCallDepth, context.Canceled, context.DeadlineExceeded}

func diffResult(want *interp.Result, wantErr error, got *interp.Result, gotErr error) string {
	switch {
	case (wantErr == nil) != (gotErr == nil):
		return fmt.Sprintf("error: reference %v, compiled %v", wantErr, gotErr)
	case wantErr != nil:
		for _, s := range sentinels {
			if errors.Is(wantErr, s) != errors.Is(gotErr, s) {
				return fmt.Sprintf("errors.Is(_, %v): reference %v, compiled %v", s, wantErr, gotErr)
			}
		}
		var wa, ga *interp.AssertError
		if errors.As(wantErr, &wa) != errors.As(gotErr, &ga) || (wa != nil && wa.Cond != ga.Cond) {
			return fmt.Sprintf("assertion: reference %v, compiled %v", wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			return fmt.Sprintf("error message: reference %q, compiled %q", wantErr, gotErr)
		}
		if got != nil {
			return fmt.Sprintf("a failed run returned a result %+v", got)
		}
	case !reflect.DeepEqual(want, got):
		return fmt.Sprintf("result: reference %+v, compiled %+v", want, got)
	}
	return ""
}

// randomState draws a small memory image and, half the time, preset
// register values (unmasked, so a read of a preset wider than its
// register is exercised).
func randomState(rng *rand.Rand, regs []*isps.RegDecl) *interp.State {
	st := interp.NewState()
	for a := 0; a < 96; a++ {
		if rng.Intn(3) > 0 {
			st.Mem[uint64(a)] = byte(rng.Intn(8))
		}
	}
	if rng.Intn(2) == 0 {
		for _, r := range regs {
			if rng.Intn(2) == 0 {
				st.Regs[r.Name] = uint64(rng.Intn(1 << 10))
			}
		}
	}
	return st
}

// TestCompiledMatchesReference runs every corpus description on random
// states and inputs, and every catalog binding's operator and variant on
// inputs from its generator, through both engines.
func TestCompiledMatchesReference(t *testing.T) {
	ctx := context.Background()
	var descs []*isps.Description
	for _, e := range machines.All() {
		descs = append(descs, isps.MustParse(e.Source))
	}
	for _, e := range langops.All() {
		descs = append(descs, isps.MustParse(e.Source))
	}
	for _, d := range descs {
		rng := rand.New(rand.NewSource(1))
		n := len(d.Inputs())
		for round := 0; round < 150; round++ {
			// Every tenth round supplies one operand too few.
			k := n
			if round%10 == 9 && n > 0 {
				k--
			}
			inputs := make([]uint64, k)
			for i := range inputs {
				inputs[i] = uint64(rng.Intn(24))
			}
			st := randomState(rng, d.Regs())
			if msg := diffRuns(ctx, d, inputs, st, 3000); msg != "" {
				t.Fatalf("%s, inputs %v: %s", d.Name, inputs, msg)
			}
		}
	}

	for _, a := range append(proofs.Table2(), proofs.Extensions()...) {
		_, b, err := a.Run()
		if err != nil {
			t.Fatalf("%s/%s: %v", a.Instruction, a.Operator, err)
		}
		rng := rand.New(rand.NewSource(1))
		for round := 0; round < 100; round++ {
			in, mem := a.Gen(rng)
			for _, d := range []*isps.Description{b.Operator, b.Variant} {
				st := interp.NewState()
				maps.Copy(st.Mem, mem)
				if msg := diffRuns(ctx, d, in, st, 0); msg != "" {
					t.Fatalf("%s/%s %s, inputs %v: %s", a.Instruction, a.Operator, d.Name, in, msg)
				}
			}
		}
	}
}

// TestCompiledErrorPaths pins each way a run can fail, or can look as if
// it should, against the reference.
func TestCompiledErrorPaths(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// edited parses src and hand-edits the tree into a shape the parser
	// never produces.
	edited := func(src string, edit func(d *isps.Description)) *isps.Description {
		d := isps.MustParse(src)
		edit(d)
		return d
	}
	const assignSrc = `u.operation := begin
** S **
  a<7:0>, b: integer,
  u.execute := begin
    input (a);
    b <- a + 1;
    output (b);
  end
end`
	// assignment is assignSrc's "b <- a + 1".
	assignment := func(d *isps.Description) *isps.AssignStmt {
		return d.Routine().Body.Stmts[1].(*isps.AssignStmt)
	}
	cases := []struct {
		name   string
		d      *isps.Description
		inputs []uint64
		ctx    context.Context
		limit  int
		want   string // substring of the error; "" for a clean run
	}{
		{name: "step limit", d: isps.MustParse(`spin.operation := begin
** S **
  x<3:0>,
  spin.execute := begin
    input (x);
    repeat
      x <- x + 1;
    end_repeat;
  end
end`), inputs: []uint64{0}, limit: 500, want: "step limit exceeded"},
		{name: "empty loop", d: isps.MustParse(`el.operation := begin
** S **
  x: integer,
  el.execute := begin
    input (x);
    if x then repeat end_repeat; end_if;
    output (x);
  end
end`), inputs: []uint64{1}, ctx: canceled, want: "step limit exceeded"},
		{name: "context polled every 1024 steps", d: isps.MustParse(`spin.operation := begin
** S **
  x: integer,
  spin.execute := begin
    input (x);
    repeat
      exit_when (x = 5000);
      x <- x + 1;
    end_repeat;
    output (x);
  end
end`), inputs: []uint64{0}, ctx: canceled, want: "interrupted after 1024 steps: context canceled"},
		{name: "call depth", d: isps.MustParse(`rec.operation := begin
** S **
  n: integer,
  f()<15:0> := begin
    n <- n + 1;
    f <- f();
  end,
  rec.execute := begin
    input (n);
    n <- f();
    output (n);
  end
end`), inputs: []uint64{1}, want: "call depth limit exceeded at f()"},
		{name: "assertion", d: isps.MustParse(`as.operation := begin
** S **
  x: integer,
  as.execute := begin
    input (x);
    x <- x * 2;
    assert (x = 3);
    output (x);
  end
end`), inputs: []uint64{4}, want: "assertion failed: x = 3"},
		{name: "division by zero", d: isps.MustParse(`dz.operation := begin
** S **
  x: integer, y: integer,
  dz.execute := begin
    input (x, y);
    y <- x / y;
    output (y);
  end
end`), inputs: []uint64{7, 0}, want: "division by zero in dz.operation"},
		{name: "input exhaustion after a partial input", d: isps.MustParse(`in.operation := begin
** S **
  a<3:0>, b: integer,
  in.execute := begin
    input (a, b);
    output (a);
  end
end`), inputs: []uint64{0x1f}, want: "input(b) exhausted the 1 supplied operand values"},
		{name: "exit_when outside a loop", d: isps.MustParse(`ex.operation := begin
** S **
  x: integer,
  ex.execute := begin
    input (x);
    x <- 2;
    exit_when (x);
    output (x);
  end
end`), inputs: []uint64{1}, want: "exit_when outside of repeat loop"},
		{name: "exit_when escaping a function", d: isps.MustParse(`ef.operation := begin
** S **
  x: integer,
  g()<15:0> := begin
    exit_when (x);
  end,
  ef.execute := begin
    input (x);
    repeat
      x <- g();
    end_repeat;
    output (x);
  end
end`), inputs: []uint64{1}, want: "exit_when escaped function g()"},
		{name: "undeclared call not reached", d: isps.MustParse(`uc.operation := begin
** S **
  x: integer,
  uc.execute := begin
    input (x);
    if x then x <- nosuch(); end_if;
    output (x);
  end
end`), inputs: []uint64{0}},
		{name: "undeclared call reached", d: isps.MustParse(`uc.operation := begin
** S **
  x: integer,
  uc.execute := begin
    input (x);
    if x then x <- nosuch(); end_if;
    output (x);
  end
end`), inputs: []uint64{1}, want: "call of undeclared function nosuch()"},
		{name: "no routine", d: isps.MustParse(`nr.operation := begin
** S **
  x: integer
end`), want: "has no routine"},
		{name: "redeclared function: the last declaration wins", d: isps.MustParse(`rd.operation := begin
** S **
  x: integer,
  f()<3:0> := begin
    f <- 1;
  end,
  f()<7:0> := begin
    f <- 255;
  end,
  rd.execute := begin
    input (x);
    x <- f();
    output (x);
  end
end`), inputs: []uint64{0}},
		{name: "bad assignment target", d: edited(assignSrc, func(d *isps.Description) {
			assignment(d).LHS = &isps.Num{Val: 3}
		}), inputs: []uint64{1}, want: "bad assignment target *isps.Num"},
		{name: "unknown binary operator", d: edited(assignSrc, func(d *isps.Description) {
			assignment(d).RHS.(*isps.Bin).Op = isps.Op(99)
		}), inputs: []uint64{1}, want: "unknown binary operator Op(99)"},
		{name: "unknown unary operator", d: edited(assignSrc, func(d *isps.Description) {
			assignment(d).RHS = &isps.Un{Op: isps.OpAdd, X: &isps.Num{Val: 1}}
		}), inputs: []uint64{1}, want: "unknown unary operator +"},
		{name: "unknown expression", d: edited(assignSrc, func(d *isps.Description) {
			assignment(d).RHS = nil
		}), inputs: []uint64{1}, want: "unknown expression type <nil>"},
		{name: "unknown statement", d: edited(assignSrc, func(d *isps.Description) {
			d.Routine().Body.Stmts[1] = nil
		}), inputs: []uint64{1}, want: "unknown statement type <nil>"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			// Preset registers, one wider than its declaration, so the
			// failure's partial write-back is compared too.
			st := interp.NewState()
			st.Regs["x"] = 0x1ff
			st.Regs["n"] = 3
			if msg := diffRuns(ctx, tc.d, tc.inputs, st, tc.limit); msg != "" {
				t.Fatal(msg)
			}
			_, err := interp.Run(ctx, tc.d, tc.inputs, st.Clone(), tc.limit)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("err = %v, want a clean run", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestRegistersWrittenBackOnFailure: registers assigned before a failure
// reach the state masked to their width, untouched ones keep their preset,
// and a state with nil Regs is left without registers.
func TestRegistersWrittenBackOnFailure(t *testing.T) {
	d := isps.MustParse(`wb.operation := begin
** S **
  a<7:0>, b<3:0>, c: integer,
  wb.execute := begin
    input (a);
    b <- a + c;
    c <- 1 / (a - a);
  end
end`)
	st := interp.NewState()
	st.Regs["c"] = 0x101
	if _, err := interp.Run(context.Background(), d, []uint64{0x1f2}, st, 0); err == nil {
		t.Fatal("division by zero did not fail")
	}
	want := map[string]uint64{"a": 0xf2, "b": 0x3, "c": 0x101}
	if !reflect.DeepEqual(st.Regs, want) {
		t.Errorf("registers after a failed run = %v, want %v", st.Regs, want)
	}
	blind := &interp.State{}
	if _, err := interp.Run(context.Background(), d, []uint64{1}, blind, 0); err == nil {
		t.Fatal("division by zero did not fail")
	}
	if blind.Regs != nil {
		t.Errorf("a state with nil Regs gained registers %v", blind.Regs)
	}
}

// TestProgramConcurrentRuns: one compiled Program run from several
// goroutines at once gives every run the single-threaded answer (run under
// -race to check the Program is not written during runs).
func TestProgramConcurrentRuns(t *testing.T) {
	p := interp.Compile(machines.Get("scasb"))
	image := map[uint64]byte{}
	for i := 0; i < 64; i++ {
		image[uint64(100+i)] = byte('a' + i%3)
	}
	in := []uint64{1, 0, 0, 0, 100, 64, 'c'}
	want, err := p.Run(context.Background(), in, &interp.State{Base: image}, 0)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 4)
	for g := 0; g < cap(errs); g++ {
		go func() {
			for i := 0; i < 50; i++ {
				got, err := p.Run(context.Background(), in, &interp.State{Base: image}, 0)
				if err == nil && !reflect.DeepEqual(got, want) {
					err = fmt.Errorf("result %+v, want %+v", got, want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// FuzzInterpReference parses fuzz input as a description and runs it on
// random inputs, a small memory and a low step limit through both engines.
func FuzzInterpReference(f *testing.F) {
	for _, e := range machines.All() {
		f.Add(e.Source, int64(1))
	}
	for _, e := range langops.All() {
		f.Add(e.Source, int64(2))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		d, err := isps.Parse(src)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		inputs := make([]uint64, len(d.Inputs()))
		for i := range inputs {
			inputs[i] = uint64(rng.Intn(16))
		}
		st := randomState(rng, d.Regs())
		if msg := diffRuns(context.Background(), d, inputs, st, 200); msg != "" {
			t.Fatalf("inputs %v: %s", inputs, msg)
		}
	})
}
