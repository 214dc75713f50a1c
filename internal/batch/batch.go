// Package batch runs the proof catalog — every analysis script of the
// paper's Table 2 plus this reproduction's extensions — concurrently
// through a worker pool, with each analysis behind its own fault boundary.
// One hostile or broken analysis degrades its own row of the report; the
// rest of the batch completes. The report rows come back in catalog order
// regardless of which worker finished first, so batch output is
// deterministic and diffable.
package batch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"extra/internal/core"
	"extra/internal/fault"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// Result is one report row: the analysis identity, how it ended, and its
// step accounting. Outcome is "ok" or a fault.Classify label ("panic",
// "budget", "timeout", ...), so downstream tooling can bucket failures
// without string-matching error text.
type Result struct {
	Machine     string `json:"machine"`
	Instruction string `json:"instruction"`
	Language    string `json:"language"`
	Operation   string `json:"operation"`
	Operator    string `json:"operator"`
	Extended    bool   `json:"extended,omitempty"`
	Outcome     string `json:"outcome"`
	Error       string `json:"error,omitempty"`
	Steps       int    `json:"steps,omitempty"`
	Elementary  int    `json:"elementary,omitempty"`
	// Validated is the number of random inputs differential validation
	// agreed on (0 when validation was off or the analysis failed).
	Validated  int   `json:"validated,omitempty"`
	DurationMS int64 `json:"duration_ms"`
	// Trace is the trace ID of the originating request or batch run
	// (obs.TraceIDFrom on the execution context), so a slow row in a
	// journal or report can be joined against its JSONL trace.
	Trace string `json:"trace,omitempty"`
}

// Pair is the row's instruction/operator label.
func (r *Result) Pair() string { return r.Instruction + "/" + r.Operator }

// Runner runs a catalog of analyses concurrently.
type Runner struct {
	// Jobs is the worker count; 0 means GOMAXPROCS.
	Jobs int
	// Validate, when positive, runs differential validation of each
	// finished binding on that many random inputs.
	Validate int
	// EachTimeout, when positive, bounds every single analysis; the batch
	// context bounds the whole run either way.
	EachTimeout time.Duration
	// Completed maps Result.Key() to rows finished elsewhere — a resumed
	// journal, a cache hit. Matching catalog rows are copied into the report
	// without running, counted batch.skipped, and never reach OnResult.
	Completed map[string]Result
	// OnResult observes each freshly-executed row as it completes, in
	// completion order (the journaling hook). Calls are serialized by the
	// Runner; OnResult itself need not be concurrency-safe.
	OnResult func(Result)
	// OnBound observes each freshly-executed row together with its finished
	// binding — nil unless the row ended "ok". This is the caching hook: the
	// binding is the compiler-interface document a warm consumer wants
	// without re-running the engine. Calls are serialized with OnResult.
	OnBound func(Result, *core.Binding)
	// Tracer observes every analysis (nil-safe). Metrics counts outcomes
	// under batch.outcome and durations under batch.duration_ms; nil means
	// the process default registry.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

func (r *Runner) metrics() *obs.Registry {
	if r.Metrics != nil {
		return r.Metrics
	}
	return obs.Default()
}

// Run executes every analysis once and returns one Result per analysis, in
// input order. Rows whose key appears in Completed are copied from there
// without running. Worker goroutines claim the remaining analyses off a
// shared cursor (see Pool); executed rows fan out through OnResult and
// OnBound (serialized) in completion order. A canceled context does not stop
// the claiming: every remaining analysis runs under it and reports
// "canceled", so Run still returns one row per analysis. Run never returns
// an error: failures are rows, not aborts.
func (r *Runner) Run(ctx context.Context, analyses []*proofs.Analysis) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(analyses))
	m := r.metrics()
	pending := make([]int, 0, len(analyses))
	for i, a := range analyses {
		if done, ok := r.Completed[AnalysisKey(a)]; ok {
			results[i] = done
			m.Inc("batch.skipped", done.Pair())
			continue
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return results
	}
	jobs := min(r.jobs(), len(pending))
	m.Set("batch.jobs", "configured", int64(jobs))
	var reportMu sync.Mutex
	Pool(jobs, len(pending), func(n int) error {
		i := pending[n]
		res, bound := r.RunOneBound(ctx, analyses[i])
		results[i] = res
		m.Inc("batch.outcome", res.Outcome)
		if r.OnResult != nil || r.OnBound != nil {
			reportMu.Lock()
			defer reportMu.Unlock()
			if r.OnResult != nil {
				r.OnResult(res)
			}
			if r.OnBound != nil {
				r.OnBound(res, bound)
			}
		}
		return nil
	})
	return results
}

// Pool calls work(i) for every i in [0, n) on at most jobs goroutines
// (jobs <= 0 means GOMAXPROCS). Workers claim indices in ascending order
// off one shared cursor, so each index runs exactly once. After the first
// error no further index is claimed; Pool waits for the calls in flight
// and returns that error.
func Pool(jobs, n int, work func(i int) error) error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < min(jobs, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := work(i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						stop.Store(true)
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// RunOneBound executes a single analysis behind its own fault boundary: a
// panic out of a script or the engine becomes a *fault.PanicError
// classified into the row, never a crashed process. The analysis server
// serves /analyze through exactly this boundary. It also returns the
// finished binding when the analysis ended "ok" (nil otherwise): for
// callers that persist the result, like the analysis cache, the binding
// IS the product worth keeping.
func (r *Runner) RunOneBound(ctx context.Context, a *proofs.Analysis) (Result, *core.Binding) {
	res := Result{
		Machine: a.Machine, Instruction: a.Instruction,
		Language: a.Language, Operation: a.Operation,
		Operator: a.Operator, Extended: a.Extended,
		Trace: obs.TraceIDFrom(ctx),
	}
	var bound *core.Binding
	start := time.Now()
	err := func() (err error) {
		defer fault.RecoverInto(&err, "batch."+a.Instruction+"/"+a.Operator)
		runCtx := ctx
		if r.EachTimeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(ctx, r.EachTimeout)
			defer cancel()
		}
		_, b, err := a.RunCtx(runCtx, r.Tracer)
		if err != nil {
			return err
		}
		res.Steps, res.Elementary = b.Steps, b.Elementary
		if r.Validate > 0 {
			n, err := core.ValidateBindingCtx(runCtx, b, a.Gen, r.Validate, 1, r.Tracer)
			if err != nil {
				return fmt.Errorf("differential validation: %w", err)
			}
			res.Validated = n
		}
		bound = b
		return nil
	}()
	res.DurationMS = time.Since(start).Milliseconds()
	r.metrics().ObserveSince("batch.duration_ms", res.Pair(), start)
	res.Outcome = fault.Classify(err)
	if err != nil {
		res.Error = err.Error()
		bound = nil
	}
	return res, bound
}

// Summary aggregates a result set: rows per outcome label.
func Summary(results []Result) map[string]int {
	out := map[string]int{}
	for i := range results {
		out[results[i].Outcome]++
	}
	return out
}

// WriteJSON writes the report as one indented JSON document with the rows
// and the outcome summary.
func WriteJSON(w io.Writer, results []Result) error {
	doc := struct {
		Results []Result       `json:"results"`
		Summary map[string]int `json:"summary"`
	}{Results: results, Summary: Summary(results)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteJSONL writes the report as JSON lines, one row per analysis, in
// catalog order.
func WriteJSONL(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	for i := range results {
		if err := enc.Encode(&results[i]); err != nil {
			return err
		}
	}
	return nil
}
