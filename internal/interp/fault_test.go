package interp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"extra/internal/isps"
)

// TestCallDepthSentinel: unbounded recursion must return the ErrCallDepth
// sentinel (wrapped with the offending function's name), never overflow
// the Go stack.
func TestCallDepthSentinel(t *testing.T) {
	d := isps.MustParse(`rec.operation := begin
** S **
  n: integer,
  f()<15:0> := begin
    f <- f();
  end,
  rec.execute := begin
    input (n);
    n <- f();
    output (n);
  end
end`)
	_, err := Run(context.Background(), d, []uint64{1}, NewState(), 0)
	if !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v, want ErrCallDepth sentinel", err)
	}
	if err != nil && !strings.Contains(err.Error(), "f()") {
		t.Errorf("error does not name the function: %v", err)
	}
}

// TestRunCtxDeadline: a runaway description is abandoned shortly after the
// deadline instead of burning the whole step budget.
func TestRunCtxDeadline(t *testing.T) {
	d := isps.MustParse(`spin.operation := begin
** S **
  x: integer,
  spin.execute := begin
    input (x);
    repeat
      exit_when (x < 0);
      x <- x + 1;
    end_repeat;
    output (x);
  end
end`)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		// A limit far beyond what 20ms can execute: only the context
		// can stop this run.
		_, err := Run(ctx, d, []uint64{0}, NewState(), 1<<30)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not honor the deadline")
	}
}

// TestStepLimitInjection: a step budget of 1 stops any multi-statement
// description with ErrStepLimit, whether the run compiles its description
// or reuses a compiled Program, every time.
func TestStepLimitInjection(t *testing.T) {
	d := isps.MustParse(`add.operation := begin
** S **
  a: integer, b: integer,
  add.execute := begin
    input (a, b);
    a <- a + b;
    output (a);
  end
end`)
	// Sanity: with the default budget the description runs fine.
	if _, err := Run(context.Background(), d, []uint64{2, 3}, NewState(), 0); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if _, err := Run(context.Background(), d, []uint64{2, 3}, NewState(), 1); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit from a one-step budget", err)
	}
	p := Compile(d)
	for i := 0; i < 2; i++ {
		if _, err := p.Run(context.Background(), []uint64{2, 3}, NewState(), 1); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("compiled run %d: err = %v, want ErrStepLimit from a one-step budget", i, err)
		}
	}
}
