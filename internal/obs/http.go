package obs

import (
	"net/http"
	"strings"
)

// ServeHTTP serves the registry snapshot — the `extra serve` /metrics
// endpoint. The format is content-negotiated: the deterministic indented
// JSON of WriteJSON by default, or the Prometheus text exposition of
// WriteProm when the request asks for it with ?format=prom or an Accept
// header preferring text/plain (what Prometheus scrapers send). Runtime
// gauges (goroutines, heap, GC) are sampled at scrape time, responses
// declare their Content-Type explicitly (no sniffing) and are marked
// Cache-Control: no-store — a metrics snapshot must never be replayed by
// an intermediary. A nil registry serves an empty snapshot, matching the
// rest of the package's nil-safety.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.SampleRuntime()
	w.Header().Set("Cache-Control", "no-store")
	var err error
	if wantsProm(req) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		err = r.WriteProm(w)
	} else {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		err = r.WriteJSON(w)
	}
	if err != nil {
		// Headers are out; all we can do is cut the connection so the
		// client sees a truncated body rather than a clean EOF.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, herr := hj.Hijack(); herr == nil {
				conn.Close()
			}
		}
	}
}

// wantsProm reports whether the request asked for the Prometheus text
// exposition: an explicit ?format=prom, or an Accept header naming
// text/plain or OpenMetrics without naming JSON first. The bare */* most
// HTTP clients send keeps the JSON default.
func wantsProm(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := req.Header.Get("Accept")
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}
