package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
	"sync/atomic"
)

// Trace identity. A trace ID names one request or run across every layer
// it touches: minted at serve ingress (or honored from an incoming
// traceparent / X-Request-Id header) or at the start of a run, held by the
// tracer the context carries (WithTrace), stamped onto every event that
// tracer emits, and recorded on the report row (TracerFrom(ctx).TraceID())
// — so one slow row can be joined against its JSONL trace and access log.

// tracerKey is the context key for the run's tracer.
type tracerKey struct{}

// tracerCtx is the context node WithTrace attaches. It holds the derived
// tracer by value, so attaching costs one allocation and TracerFrom returns
// a pointer into the node.
type tracerCtx struct {
	context.Context
	t Tracer
}

func (c *tracerCtx) Value(key any) any {
	if key == (tracerKey{}) {
		return &c.t
	}
	return c.Context.Value(key)
}

// WithTrace returns ctx carrying parent derived with trace ID id. The
// derived tracer stamps id into every event's Trace field and shares
// parent's sinks and span-id counter, so spans stay unique across
// concurrent requests writing one trace file. Without a parent (or one
// without sinks) it is disabled and only carries id for the rows.
func WithTrace(ctx context.Context, parent *Tracer, id string) context.Context {
	c := &tracerCtx{Context: ctx}
	if parent != nil {
		c.t = *parent
	}
	c.t.trace = id
	return c
}

// TracerFrom returns the context's tracer; nil when none was attached,
// which every Tracer method accepts as a no-op.
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// traceIDCounter disambiguates minted IDs if the random source ever fails.
var traceIDCounter atomic.Uint64

// NewTraceID mints a 32-hex-character trace ID (the W3C trace-id width).
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degrade to a process-unique counter rather than failing the
		// request: trace identity is advisory.
		n := traceIDCounter.Add(1)
		for i := 0; i < 8; i++ {
			b[15-i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether id is usable as a trace ID: 1-64 characters
// drawn from [0-9a-zA-Z_-], so hostile headers cannot smuggle newlines or
// JSON into trace files and response headers.
func ValidTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ParseTraceparent extracts the trace-id field of a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"). ok is false
// for malformed headers and for the all-zero trace ID the spec forbids.
func ParseTraceparent(header string) (traceID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(header), "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", false
	}
	allZero := true
	for i := 0; i < len(parts[1]); i++ {
		c := parts[1][i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return "", false
		}
		if c != '0' {
			allZero = false
		}
	}
	if allZero {
		return "", false
	}
	return parts[1], true
}
