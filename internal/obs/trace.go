package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured trace record. Span-bearing events share the
// span's id; End events carry the span's duration.
type Event struct {
	Time time.Time `json:"t"`
	// Name is the event kind, e.g. "session.begin", "transform.apply",
	// "equiv.match", "codegen.emit".
	Name string `json:"name"`
	// Phase is "begin"/"end" for span boundaries, "" for point events.
	Phase string `json:"phase,omitempty"`
	// Span is the enclosing or bounded span's id (0 = none).
	Span int64 `json:"span,omitempty"`
	// Trace is the request/run trace ID the emitting tracer was derived
	// with (WithTrace); "" on tracers without one.
	Trace string `json:"trace,omitempty"`
	// DurNS is the span duration on "end" events.
	DurNS int64 `json:"dur_ns,omitempty"`
	// Attrs carries event-specific fields (transformation name, cursor
	// path, outcome, precondition message, mapping size, ...).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Sink consumes emitted events. Sinks must tolerate concurrent Emit calls.
type Sink interface {
	Emit(e *Event)
}

// Tracer fans events out to its sinks. A nil *Tracer, or one without
// sinks, is a valid disabled tracer: every method is a no-op and allocates
// nothing. WithTrace attaches to a context a tracer derived with a trace
// ID, which it stamps on every event while sharing the parent's sinks and
// span counter.
type Tracer struct {
	sinks    []Sink
	trace    string
	nextSpan *atomic.Int64
}

// NewTracer builds a tracer over the given sinks.
func NewTracer(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks, nextSpan: &atomic.Int64{}}
}

// TraceID returns the trace ID this tracer stamps ("" for a root tracer
// and for nil).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.trace
}

// Enabled reports whether events will reach any sink. Hot paths should
// guard attribute-map construction with it.
func (t *Tracer) Enabled() bool {
	return t != nil && len(t.sinks) > 0
}

func (t *Tracer) emit(e *Event) {
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Event emits a point event.
func (t *Tracer) Event(name string, attrs map[string]any) {
	if !t.Enabled() {
		return
	}
	t.emit(&Event{Time: time.Now(), Name: name, Trace: t.trace, Attrs: attrs})
}

// Span is an in-progress timed region. The zero Span (from a disabled
// tracer) accepts End and Event calls and does nothing.
type Span struct {
	t     *Tracer
	id    int64
	name  string
	start time.Time
}

// StartSpan opens a span and emits its "begin" event.
func (t *Tracer) StartSpan(name string, attrs map[string]any) Span {
	if !t.Enabled() {
		return Span{}
	}
	sp := Span{t: t, id: t.nextSpan.Add(1), name: name, start: time.Now()}
	t.emit(&Event{Time: sp.start, Name: name, Phase: "begin", Span: sp.id, Trace: t.trace, Attrs: attrs})
	return sp
}

// Event emits a point event inside the span.
func (s Span) Event(name string, attrs map[string]any) {
	if !s.t.Enabled() {
		return
	}
	s.t.emit(&Event{Time: time.Now(), Name: name, Span: s.id, Trace: s.t.trace, Attrs: attrs})
}

// End closes the span, emitting its "end" event with the duration.
func (s Span) End(attrs map[string]any) {
	if !s.t.Enabled() {
		return
	}
	now := time.Now()
	s.t.emit(&Event{Time: now, Name: s.name, Phase: "end", Span: s.id, Trace: s.t.trace,
		DurNS: now.Sub(s.start).Nanoseconds(), Attrs: attrs})
}

// JSONLSink writes one JSON object per line — the `--trace FILE` format.
type JSONLSink struct {
	mu    sync.Mutex
	w     io.Writer
	err   error
	drops uint64
}

// NewJSONLSink writes events to w as JSON lines.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Emit writes the event as one JSON line, in one write. Write failures
// never fail the traced computation — tracing is advisory — but they are
// not swallowed either: the first error is retained for Err, every failed
// event counts toward Dropped, and the mutex keeps concurrent emissions
// from interleaving partial lines. A failed write drops only its own
// event: the next event is written again.
func (s *JSONLSink) Emit(e *Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	line, err := json.Marshal(e)
	if err == nil {
		_, err = s.w.Write(append(line, '\n'))
	}
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		s.drops++
	}
}

// Err returns the first write or encoding error the sink hit (nil when every
// event was written). Callers that own the trace file should check it at
// shutdown and report a lossy trace to the user.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Dropped reports how many events failed to be written.
func (s *JSONLSink) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
}

// MemSink retains events in memory for tests.
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends a copy of the event.
func (s *MemSink) Emit(e *Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, *e)
}

// Events returns a copy of the retained events.
func (s *MemSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Len reports the number of retained events.
func (s *MemSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}
