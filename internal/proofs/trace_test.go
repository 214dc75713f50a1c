package proofs

import (
	"context"
	"testing"

	"extra/internal/core"
	"extra/internal/obs"
)

// TestRunCtxTracesOnContextTracer: an analysis run under a context that
// carries a tracer emits on that tracer, with its trace ID on every event:
// the analysis span, one applied transform.apply per recorded step, the
// session.finish event, and the validation span of the same context.
func TestRunCtxTracesOnContextTracer(t *testing.T) {
	sink := &obs.MemSink{}
	ctx := obs.WithTrace(context.Background(), obs.NewTracer(sink), "run-7")
	a := ScasbRigel()
	s, b, err := a.RunCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ValidateBindingCtx(ctx, b, a.Gen, 10, 1); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, e := range sink.Events() {
		if e.Trace != "run-7" {
			t.Fatalf("event %s %s carries trace %q, want run-7", e.Name, e.Phase, e.Trace)
		}
		if e.Name != "transform.apply" || e.Attrs["outcome"] == "applied" {
			count[e.Name+" "+e.Phase]++
		}
	}
	want := map[string]int{
		"analysis begin": 1, "analysis end": 1,
		"transform.apply ": len(s.Steps),
		"session.finish ":  1,
		"validate begin":   1, "validate end": 1,
	}
	for k, n := range want {
		if count[k] != n {
			t.Errorf("%d %q events, want %d (all: %v)", count[k], k, n, count)
		}
	}
}
