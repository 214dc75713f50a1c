// Package obs is the observability layer of the EXTRA reproduction: a
// lightweight structured tracer (spans and events with pluggable sinks) and
// a concurrency-safe metrics registry (counters, gauges, latency/value
// histograms). Every layer of the pipeline — the analysis engine (package
// core), the transformation library, the common-form matcher, binding
// validation, and the code generators — reports into it, so `extra stats`
// can print where transformation steps, precondition failures, and time go
// for each analysis; the paper's Table 2 was exactly such an accounting,
// and every future performance PR needs this baseline.
//
// Both halves are nil-safe no-ops: a nil *Tracer or nil *Registry accepts
// every call and does nothing, so instrumented code never branches on
// configuration. The disabled paths are allocation-free (guard attribute
// construction with Tracer.Enabled on hot paths).
package obs

import (
	"sync"
	"sync/atomic"
)

// defaultRegistry is the process-wide registry that instrumented packages
// without an explicit registry report into.
var (
	defaultMu       sync.RWMutex
	defaultRegistry = NewRegistry()
)

// Default returns the process-wide registry.
func Default() *Registry {
	defaultMu.RLock()
	defer defaultMu.RUnlock()
	return defaultRegistry
}

// SetDefault swaps the process-wide registry (tests isolate themselves
// with a fresh registry) and returns the previous one.
func SetDefault(r *Registry) *Registry {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	prev := defaultRegistry
	defaultRegistry = r
	return prev
}

// defaultTracer is the process-wide tracer for instrumented code with no
// session to carry one (the code generators, the gg selector). nil (the
// default) disables it.
var defaultTracer atomic.Pointer[Tracer]

// Trace returns the process-wide tracer; possibly nil, which every Tracer
// method accepts as a no-op.
func Trace() *Tracer { return defaultTracer.Load() }

// SetTrace swaps the process-wide tracer and returns the previous one.
// Pass nil to disable.
func SetTrace(t *Tracer) *Tracer { return defaultTracer.Swap(t) }
