package server

import (
	"bufio"
	"net"
	"net/http"
	"time"

	"extra/internal/obs"
)

// Request tracing: every request gets a trace ID at ingress — honored from an
// incoming W3C traceparent or X-Request-Id header when present, minted
// otherwise — echoed back as X-Trace-Id, and held by the tracer the request
// context carries (the root derived with the ID), which stamps it onto every
// span the request's analysis emits and onto the response row. The same
// middleware owns the request-latency histograms, so trace spans and latency
// series always agree on what was measured.

// traceIDFor resolves the request's trace ID: traceparent outranks
// X-Request-Id (it is the standard), and anything malformed or hostile
// falls through to a freshly minted ID rather than an error — trace
// identity is advisory and must never fail a request.
func traceIDFor(req *http.Request) string {
	if tp := req.Header.Get("traceparent"); tp != "" {
		if id, ok := obs.ParseTraceparent(tp); ok {
			return id
		}
	}
	if id := req.Header.Get("X-Request-Id"); obs.ValidTraceID(id) {
		return id
	}
	return obs.NewTraceID()
}

// statusRecorder captures the response status for the ingress span and the
// access log while passing Flush and Hijack through, so /metrics'
// truncate-on-error behavior and streaming handlers keep working wrapped.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.wrote = true
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.wrote = true
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if hj, ok := r.ResponseWriter.(http.Hijacker); ok {
		return hj.Hijack()
	}
	return nil, nil, http.ErrNotSupported
}

// latencyExempt excludes the health probes from the request-latency
// histograms: load balancers poll them constantly, and their sub-
// microsecond timings would drown the p50 of every real endpoint.
func latencyExempt(path string) bool {
	return path == "/healthz" || path == "/readyz"
}

// withTrace is the ingress middleware: resolve the trace ID, echo it,
// attach the root tracer derived with the ID to the request context, bound
// the whole request in a server.request span, and feed the per-endpoint
// latency histogram (server.latency.ns) and status-class counters.
func (s *Server) withTrace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := traceIDFor(req)
		w.Header().Set("X-Trace-Id", id)
		req = req.WithContext(obs.WithTrace(req.Context(), s.cfg.Tracer, id))
		tr := obs.TracerFrom(req.Context())
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		var sp obs.Span
		if tr.Enabled() {
			sp = tr.StartSpan("server.request", map[string]any{
				"path": req.URL.Path, "method": req.Method,
			})
		}
		start := time.Now()
		next.ServeHTTP(rec, req)
		elapsed := time.Since(start)
		if tr.Enabled() {
			sp.End(map[string]any{"status": rec.status})
		}
		if latencyExempt(req.URL.Path) {
			return
		}
		m := s.metrics()
		m.Observe("server.latency.ns", req.URL.Path, uint64(elapsed))
		m.Inc("server.status", statusClass(rec.status))
	})
}

// statusClass buckets a status code into its "2xx"/"4xx"/"5xx" class.
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}
