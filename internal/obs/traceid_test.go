package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("trace IDs %q, %q: want 32 hex chars", a, b)
	}
	if a == b {
		t.Error("two minted trace IDs collide")
	}
	if !ValidTraceID(a) {
		t.Errorf("minted ID %q fails its own validator", a)
	}
}

func TestValidTraceID(t *testing.T) {
	valid := []string{"a", "deadbeef", "ABC-123_xyz", strings.Repeat("f", 64)}
	invalid := []string{"", strings.Repeat("f", 65), "has space", "new\nline", `quo"te`, "semi;colon"}
	for _, id := range valid {
		if !ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = false, want true", id)
		}
	}
	for _, id := range invalid {
		if ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = true, want false", id)
		}
	}
}

func TestParseTraceparent(t *testing.T) {
	id, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok || id != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("well-formed traceparent: id=%q ok=%v", id, ok)
	}
	bad := []string{
		"",
		"not-a-traceparent",
		"00-short-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // all-zero forbidden
		"00-4bf92f3577b34da6a3ce929d0e0e47XY-00f067aa0ba902b7-01", // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
	}
	for _, h := range bad {
		if id, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, id=%q", h, id)
		}
	}
}

// TestContextRoundTrip: the context carries one tracer, which holds the
// trace ID. A nil context and a context without a tracer give the nil
// (disabled) tracer; an ID without sinks gives a disabled tracer that still
// carries the ID; a derived tracer keeps its parent's sinks and span
// counter and is found through the context layers stacked on top of it.
func TestContextRoundTrip(t *testing.T) {
	if got := TracerFrom(nil); got != nil { //nolint:staticcheck // nil-safety contract
		t.Errorf("nil context carries tracer %v", got)
	}
	bg := context.Background()
	if got := TracerFrom(bg); got != nil || got.TraceID() != "" || got.Enabled() {
		t.Errorf("empty context carries tracer %v", got)
	}

	bare := TracerFrom(WithTrace(bg, nil, "abc123"))
	if bare == nil || bare.TraceID() != "abc123" {
		t.Fatalf("ID without sinks: tracer %v, want one carrying abc123", bare)
	}
	if bare.Enabled() {
		t.Error("a tracer without sinks is enabled")
	}
	if n := testing.AllocsPerRun(100, func() {
		sp := bare.StartSpan("s", nil)
		sp.Event("e", nil)
		sp.End(nil)
		bare.Event("e", nil)
	}); n != 0 {
		t.Errorf("disabled tracer allocates %v per call sequence, want 0", n)
	}

	sink := &MemSink{}
	root := NewTracer(sink)
	ctx, cancel := context.WithCancel(WithTrace(bg, root, "run-1"))
	defer cancel()
	ctx = context.WithoutCancel(context.WithValue(ctx, struct{}{}, 1))
	d := TracerFrom(ctx)
	if d == nil || d.TraceID() != "run-1" || !d.Enabled() {
		t.Fatalf("derived tracer %v: want enabled, carrying run-1, under stacked contexts", d)
	}
	if TracerFrom(ctx) != d {
		t.Error("two reads of one context give different tracers")
	}
	a := root.StartSpan("root", nil)
	b := d.StartSpan("derived", nil)
	a.End(nil)
	b.End(nil)
	ev := sink.Events()
	if len(ev) != 4 {
		t.Fatalf("%d events, want 4 in the parent's sink", len(ev))
	}
	if ev[0].Span == ev[1].Span || ev[1].Trace != "run-1" || ev[0].Trace != "" {
		t.Errorf("derived tracer does not share the parent's span counter or stamps the wrong ID: %+v", ev)
	}
	if root.TraceID() != "" {
		t.Errorf("deriving stamped the parent with %q", root.TraceID())
	}
}

// TestWithTraceOneAllocation pins the cost of attaching a traced context:
// one node holding the derived tracer by value, with or without a parent.
func TestWithTraceOneAllocation(t *testing.T) {
	bg := context.Background()
	root := NewTracer(&MemSink{})
	for _, parent := range []*Tracer{nil, root} {
		var ctx context.Context
		n := testing.AllocsPerRun(100, func() { ctx = WithTrace(bg, parent, "id") })
		if n != 1 {
			t.Errorf("WithTrace(parent %v) costs %v allocations, want 1", parent, n)
		}
		if TracerFrom(ctx).TraceID() != "id" {
			t.Error("attached tracer lost its ID")
		}
	}
}

// derive returns parent derived with trace ID id, as a run's context
// carries it.
func derive(parent *Tracer, id string) *Tracer {
	return TracerFrom(WithTrace(context.Background(), parent, id))
}

// TestWithTraceStampsEvents: a derived tracer stamps its trace ID on point
// events, span boundaries, and span-internal events, while the parent stays
// unstamped and both share one span-ID sequence (no collisions in a shared
// trace file).
func TestWithTraceStampsEvents(t *testing.T) {
	sink := &MemSink{}
	root := NewTracer(sink)
	d1 := derive(root, "trace-1")
	d2 := derive(root, "trace-2")

	root.Event("root.point", nil)
	s1 := d1.StartSpan("req", nil)
	s1.Event("inner", nil)
	s1.End(nil)
	s2 := d2.StartSpan("req", nil)
	s2.End(nil)

	events := sink.Events()
	byTrace := map[string]int{}
	spanIDs := map[int64]string{}
	for _, e := range events {
		byTrace[e.Trace]++
		if e.Span != 0 {
			if prev, ok := spanIDs[e.Span]; ok && prev != e.Trace {
				t.Errorf("span id %d reused across traces %q and %q", e.Span, prev, e.Trace)
			}
			spanIDs[e.Span] = e.Trace
		}
	}
	if byTrace[""] != 1 || byTrace["trace-1"] != 3 || byTrace["trace-2"] != 2 {
		t.Errorf("trace stamping off: %v", byTrace)
	}
	if root.TraceID() != "" || d1.TraceID() != "trace-1" {
		t.Errorf("TraceID: root %q derived %q", root.TraceID(), d1.TraceID())
	}
	if nilDerived := derive(nil, "x"); nilDerived.Enabled() {
		t.Error("a tracer derived without a parent is enabled")
	}
}

// TestConcurrentJSONLTraceEmission is the -race torn-line test: many
// derived tracers hammer one JSONL sink concurrently; afterwards every line
// must parse as a complete event and per-trace span sequences must be
// intact. Run with -race this also proves the sink's locking.
func TestConcurrentJSONLTraceEmission(t *testing.T) {
	var buf syncBuffer
	sink := NewJSONLSink(&buf)
	root := NewTracer(sink)
	const workers, spansEach = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := derive(root, string(rune('a'+w))+"-trace")
			for i := 0; i < spansEach; i++ {
				sp := tr.StartSpan("work", map[string]any{"i": i})
				sp.Event("step", nil)
				sp.End(nil)
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	wantLines := workers * spansEach * 3
	if len(lines) != wantLines {
		t.Fatalf("%d JSONL lines, want %d", len(lines), wantLines)
	}
	perTrace := map[string]int{}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is torn or invalid JSON: %v\n%s", i, err, line)
		}
		if e.Trace == "" {
			t.Fatalf("line %d lacks a trace ID: %s", i, line)
		}
		perTrace[e.Trace]++
	}
	if len(perTrace) != workers {
		t.Errorf("%d distinct traces, want %d", len(perTrace), workers)
	}
	for tr, n := range perTrace {
		if n != spansEach*3 {
			t.Errorf("trace %s has %d events, want %d", tr, n, spansEach*3)
		}
	}
}

// TestJSONLSinkDropsOnWriterError: a failing writer must not panic or fail
// the traced computation; the sink records the first error, counts every
// dropped event, and every line that did reach the writer is whole JSON.
func TestJSONLSinkDropsOnWriterError(t *testing.T) {
	fw := &failingWriter{failAfter: 2}
	sink := NewJSONLSink(fw)
	tr := derive(NewTracer(sink), "t")
	for i := 0; i < 10; i++ {
		tr.Event("e", nil)
	}
	if sink.Err() == nil {
		t.Fatal("sink swallowed the write error")
	}
	if got := sink.Dropped(); got != 8 {
		t.Errorf("Dropped() = %d, want 8 (2 writes succeeded before the failure)", got)
	}
	// Concurrent emission against a failing writer stays race-free and
	// every failure is counted; the lines written before the failure are
	// whole, never torn or interleaved.
	fw2 := &failingWriter{failAfter: 10}
	sink2 := NewJSONLSink(fw2)
	tr2 := NewTracer(sink2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := derive(tr2, "x")
			for i := 0; i < 25; i++ {
				d.Event("e", map[string]any{"worker": w, "i": i})
			}
		}(w)
	}
	wg.Wait()
	if sink2.Err() == nil {
		t.Fatal("sink swallowed the write errors")
	}
	if got := sink2.Dropped(); got != 90 {
		t.Errorf("Dropped() = %d, want 90", got)
	}
	lines := strings.Split(strings.TrimRight(fw2.buf.String(), "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d lines reached the writer, want 10", len(lines))
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d of the surviving trace is not valid JSON: %q", i, line)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer; the JSONL sink serializes
// writes itself, but the test's final read must also be safe.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// failingWriter keeps failAfter writes in buf, then errors forever.
type failingWriter struct {
	buf       bytes.Buffer
	n         int
	failAfter int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > w.failAfter {
		return 0, errors.New("disk full")
	}
	return w.buf.Write(p)
}
