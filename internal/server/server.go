// Package server exposes the EXTRA analysis pipeline as a long-running
// crash-safe HTTP+JSON service:
//
//	POST /analyze?pair=INS/OP[&timeout=D]   run one analysis, return its row
//	POST /batch   {"pairs": [...], ...}     run a catalog subset, return the report
//	GET  /healthz                           liveness (200 while the process runs)
//	GET  /readyz                            admission state (503 once draining)
//	GET  /metrics                           the obs registry as deterministic JSON
//
// The service admits at most Jobs concurrent analyses plus Queue waiting
// requests; past that it sheds load with 429 + Retry-After derived from the
// backlog and a moving average of observed service time, instead of queueing
// unboundedly. A content-addressed result cache (internal/cache) is
// consulted *before* admission: a warm hit — or a request coalesced onto an
// identical in-flight one — is served without ever occupying a worker slot.
// Every cold request is one engine run behind the batch runner's fault
// boundary, with its deadline threaded into the engine's cancellation
// plumbing (interp.Run, AutoComplete). Shutdown is graceful: cancelling the
// Run context stops admission, drains in-flight work under DrainTimeout,
// then hard-cancels whatever remains.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"extra/internal/batch"
	"extra/internal/cache"
	"extra/internal/core"
	"extra/internal/fault"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// Config parameterizes a Server. The zero value serves the full proof
// catalog on 127.0.0.1:0 with sane defaults.
type Config struct {
	// Addr is the listen address; empty means "127.0.0.1:0" (ephemeral).
	Addr string
	// Jobs bounds concurrently-running analyses (0 = GOMAXPROCS via the
	// batch runner).
	Jobs int
	// Queue bounds requests waiting for a worker slot beyond Jobs; further
	// requests are shed with 429. 0 means 16.
	Queue int
	// DrainTimeout bounds the graceful-shutdown drain; past it, in-flight
	// work is hard-cancelled. 0 means 10s.
	DrainTimeout time.Duration
	// DrainGrace holds the listener open (readyz 503, work requests 503)
	// before the drain proper, so load balancers observe the flip. 0 means
	// no grace.
	DrainGrace time.Duration
	// RequestTimeout is the default per-request analysis deadline when the
	// request carries none. 0 means 1m.
	RequestTimeout time.Duration
	// Validate, when positive, differentially validates every served
	// binding on that many random inputs.
	Validate int
	// Cache, when non-nil, serves warm analysis rows content-addressed by
	// the (operator, instruction) description digest — consulted before
	// admission, so warm hits and coalesced duplicates never occupy a
	// worker slot. nil disables caching.
	Cache *cache.Cache
	// Catalog is the served analysis set; nil means Table2 + Extensions.
	Catalog []*proofs.Analysis
	// OnResult observes every executed analysis row (the serve-side
	// journaling hook); calls are serialized.
	OnResult func(batch.Result)
	// Metrics is the registry behind /metrics and the server.* series; nil
	// means the process default. Tracer observes analyses (nil-safe); per
	// request it is re-derived with the request's trace ID, so every span an
	// analysis emits carries the trace ID the response echoed.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the serve
	// mux. Off by default: the profiles expose process internals and cost
	// CPU, so they are opt-in even on a loopback listener.
	EnablePprof bool
}

func (c *Config) addr() string {
	if c.Addr == "" {
		return "127.0.0.1:0"
	}
	return c.Addr
}

func (c *Config) queue() int {
	if c.Queue == 0 {
		return 16
	}
	return c.Queue
}

func (c *Config) drainTimeout() time.Duration {
	if c.DrainTimeout == 0 {
		return 10 * time.Second
	}
	return c.DrainTimeout
}

func (c *Config) requestTimeout() time.Duration {
	if c.RequestTimeout == 0 {
		return time.Minute
	}
	return c.RequestTimeout
}

// Server is the analysis service. Create with New, serve with Run.
type Server struct {
	cfg      Config
	catalog  []*proofs.Analysis
	byPair   map[string]*proofs.Analysis
	workers  chan struct{}
	inSystem atomic.Int64 // requests admitted (waiting + running)
	draining atomic.Bool
	// avgServiceNS is an exponentially-weighted moving average of observed
	// analysis service times, feeding the Retry-After estimate on shed.
	avgServiceNS atomic.Int64
	workCtx      context.Context // cancelled only at the drain deadline
	workStop     context.CancelFunc
}

// New builds a Server over cfg.
func New(cfg Config) *Server {
	catalog := cfg.Catalog
	if catalog == nil {
		catalog = append(proofs.Table2(), proofs.Extensions()...)
	}
	byPair := make(map[string]*proofs.Analysis, len(catalog))
	for _, a := range catalog {
		byPair[a.Instruction+"/"+a.Operator] = a
	}
	s := &Server{cfg: cfg, catalog: catalog, byPair: byPair}
	s.workers = make(chan struct{}, workerCount(cfg.Jobs))
	s.workCtx, s.workStop = context.WithCancel(context.Background())
	return s
}

func workerCount(jobs int) int {
	if jobs > 0 {
		return jobs
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Server) metrics() *obs.Registry {
	if s.cfg.Metrics != nil {
		return s.cfg.Metrics
	}
	return obs.Default()
}

// Handler returns the service's HTTP handler with every route wired, each
// work handler behind its own panic boundary, and the whole mux behind the
// trace-ingress middleware (trace IDs, X-Trace-Id echo, request-latency
// histograms).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", s.metrics())
	mux.HandleFunc("/analyze", s.guard("analyze", s.handleAnalyze))
	mux.HandleFunc("/batch", s.guard("batch", s.handleBatch))
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.withTrace(mux)
}

// guard wraps a work handler in a fault boundary: a panic out of the
// handler itself (the analyses already recover their own) becomes a 500
// JSON error, never a killed connection for everyone else.
func (s *Server) guard(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		var err error
		func() {
			defer fault.RecoverInto(&err, "server."+name)
			h(w, req)
		}()
		if err != nil {
			s.metrics().Inc("server.handler_panic", name)
			writeError(w, http.StatusInternalServerError, err.Error())
		}
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// admit applies admission control: draining refuses, a full queue sheds
// with 429 + Retry-After, and an admitted request waits (bounded by its own
// context) for a worker slot. The returned release frees both the slot and
// the queue position; callers must invoke it exactly once when ok.
func (s *Server) admit(w http.ResponseWriter, req *http.Request) (release func(), ok bool) {
	m := s.metrics()
	tr := obs.TracerFrom(req.Context())
	if s.draining.Load() {
		m.Inc("server.refused", "draining")
		tr.Event("server.admit", map[string]any{"decision": "refused", "reason": "draining"})
		writeError(w, http.StatusServiceUnavailable, "draining")
		return nil, false
	}
	capacity := int64(cap(s.workers) + s.cfg.queue())
	if s.inSystem.Add(1) > capacity {
		s.inSystem.Add(-1)
		m.Inc("server.shed", req.URL.Path)
		tr.Event("server.admit", map[string]any{"decision": "shed"})
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "admission queue full")
		return nil, false
	}
	m.Set("server.in_system", "requests", s.inSystem.Load())
	queued := time.Now()
	select {
	case s.workers <- struct{}{}:
		m.ObserveSince("server.queue_wait.ns", req.URL.Path, queued)
		tr.Event("server.admit", map[string]any{
			"decision": "admitted", "queue_wait_ns": time.Since(queued).Nanoseconds(),
		})
		return func() {
			<-s.workers
			s.inSystem.Add(-1)
		}, true
	case <-req.Context().Done():
		s.inSystem.Add(-1)
		m.Inc("server.refused", "client-gone")
		tr.Event("server.admit", map[string]any{"decision": "refused", "reason": "client-gone"})
		writeError(w, http.StatusServiceUnavailable, "client went away while queued")
		return nil, false
	case <-s.workCtx.Done():
		s.inSystem.Add(-1)
		m.Inc("server.refused", "draining")
		tr.Event("server.admit", map[string]any{"decision": "refused", "reason": "draining"})
		writeError(w, http.StatusServiceUnavailable, "draining")
		return nil, false
	}
}

// observeService folds one analysis duration into the moving average
// (EWMA, α = 1/8) behind the Retry-After estimate. Lock-free: concurrent
// updates race only on which observation lands last, never on corruption.
func (s *Server) observeService(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		old := s.avgServiceNS.Load()
		next := int64(d)
		if old > 0 {
			next = old + (int64(d)-old)/8
		}
		if s.avgServiceNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds estimates when a shed client should come back: the
// queue backlog times the moving average of observed service time, floored
// at one second (the static pre-estimate before anything has run) and
// capped at ten minutes so one pathological observation cannot tell clients
// to go away for hours.
func (s *Server) retryAfterSeconds() int {
	avg := time.Duration(s.avgServiceNS.Load())
	queued := s.inSystem.Load() - int64(cap(s.workers))
	if queued < 0 {
		queued = 0
	}
	est := time.Duration(queued) * avg
	if est < time.Second {
		return 1
	}
	if est > 10*time.Minute {
		est = 10 * time.Minute
	}
	// Round up: "come back in 1s" for a 1.4s backlog under-promises.
	return int((est + time.Second - 1) / time.Second)
}

// requestContext derives the analysis context: the client's connection
// context, cut by the server's hard-stop, bounded by the request's timeout
// (query/body override, RequestTimeout default).
func (s *Server) requestContext(req *http.Request, explicit time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(req.Context())
	stop := context.AfterFunc(s.workCtx, cancel)
	d := explicit
	if d <= 0 {
		d = s.cfg.requestTimeout()
	}
	tctx, tcancel := context.WithTimeout(ctx, d)
	return tctx, func() {
		tcancel()
		stop()
		cancel()
	}
}

// sharedContext derives the context for a coalescing (singleflight) engine
// run. The computation is shared: followers who coalesced onto this flight
// must not lose their answer because the leader's client hung up — any
// client may time out or abandon its request, and that client may be the
// leader of a flight other clients are waiting on. So the client's
// cancellation is dropped (request values — trace ID, tracer — carry over)
// and the run's lifetime is owned by the server: bounded by the request
// timeout and cut by the drain hard-stop, nothing else.
func (s *Server) sharedContext(req *http.Request, explicit time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.WithoutCancel(req.Context()))
	stop := context.AfterFunc(s.workCtx, cancel)
	d := explicit
	if d <= 0 {
		d = s.cfg.requestTimeout()
	}
	tctx, tcancel := context.WithTimeout(ctx, d)
	return tctx, func() {
		tcancel()
		stop()
		cancel()
	}
}

// parseTimeout reads a `timeout` query parameter (Go duration syntax).
func parseTimeout(req *http.Request) (time.Duration, error) {
	v := req.URL.Query().Get("timeout")
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad timeout %q (want a positive Go duration)", v)
	}
	return d, nil
}

// statusFor maps a row outcome to the response status: the row itself is
// always the body, but the status code lets plain HTTP clients and load
// balancers see failures without parsing.
func statusFor(outcome string) int {
	switch outcome {
	case "ok":
		return http.StatusOK
	case "timeout":
		return http.StatusGatewayTimeout
	case "canceled":
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// report serializes OnResult fan-out through the runner's own hook
// machinery so serve-path journaling sees the same contract as batch.
func (s *Server) report(res batch.Result) {
	if s.cfg.OnResult == nil {
		return
	}
	s.cfg.OnResult(res)
}

// runPair executes one analysis behind the batch fault boundary, recording
// the service-time average and the per-(machine, instruction) service
// histogram. The engine run is bounded by a server.engine span on the
// request's tracer, so every span the analysis emits nests under the
// request's trace. The binding comes back alongside the row (nil unless
// "ok") so the caller can cache the full analysis product.
func (s *Server) runPair(ctx context.Context, a *proofs.Analysis) (batch.Result, *core.Binding) {
	m := s.metrics()
	tr := obs.TracerFrom(ctx)
	if tr == nil {
		tr = s.cfg.Tracer
	}
	// A per-call runner, so the engine runs under the request's derived
	// tracer: its spans carry this request's trace ID, not the root's.
	runner := &batch.Runner{Jobs: 1, Validate: s.cfg.Validate, Tracer: tr, Metrics: s.cfg.Metrics}
	var sp obs.Span
	if tr.Enabled() {
		sp = tr.StartSpan("server.engine", map[string]any{"pair": a.Instruction + "/" + a.Operator})
	}
	start := time.Now()
	res, bound := runner.RunOneBound(ctx, a)
	elapsed := time.Since(start)
	if tr.Enabled() {
		sp.End(map[string]any{"outcome": res.Outcome})
	}
	s.observeService(elapsed)
	m.Observe("server.service.ns", a.Machine+"/"+a.Instruction, uint64(elapsed))
	s.report(res)
	return res, bound
}

// writeResult serializes one analysis row with its outcome-derived status.
// A row without a trace ID — a warm cache hit — is stamped with the
// *serving* request's ID, so the response body always joins against the
// trace the response headers name.
func (s *Server) writeResult(w http.ResponseWriter, req *http.Request, res batch.Result) {
	if res.Trace == "" {
		res.Trace = obs.TraceIDFrom(req.Context())
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(statusFor(res.Outcome))
	json.NewEncoder(w).Encode(&res)
}

// handleAnalyze runs one analysis: ?pair=INSTRUCTION/OPERATOR, optional
// ?timeout=D. The response body is the analysis row (batch.Result JSON);
// the status code reflects its outcome. With a cache configured, the row is
// looked up content-addressed *before* admission — a warm hit is served
// immediately without occupying a worker slot, and concurrent identical
// cold requests coalesce into one engine run.
func (s *Server) handleAnalyze(w http.ResponseWriter, req *http.Request) {
	m := s.metrics()
	m.Inc("server.requests", "/analyze")
	if req.Method != http.MethodPost && req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	pair := req.URL.Query().Get("pair")
	if pair == "" {
		writeError(w, http.StatusBadRequest, "missing pair parameter (INSTRUCTION/OPERATOR, e.g. scasb/index)")
		return
	}
	a, ok := s.byPair[pair]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no analysis %q in the catalog", pair))
		return
	}
	d, err := parseTimeout(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	runCold := func() (batch.Result, bool) {
		release, ok := s.admit(w, req)
		if !ok {
			return batch.Result{}, false
		}
		defer release()
		ctx, cancel := s.requestContext(req, d)
		defer cancel()
		res, _ := s.runPair(ctx, a)
		return res, true
	}
	if s.cfg.Cache != nil {
		if key, cacheable := cache.KeyFor(a, s.cfg.Validate); cacheable {
			s.analyzeCached(w, req, a, key, d)
			return
		}
	}
	res, ok := runCold()
	if !ok {
		return // admission already answered
	}
	m.Inc("server.outcome", res.Outcome)
	s.writeResult(w, req, res)
}

// analyzeCached is the cache-fronted /analyze path: a warm hit or a
// coalesced duplicate is served without admission; only the coalescing
// leader pays for admission and the engine run. The cache outcome is
// exported as an X-Cache header ("miss"/"hit"/"hit-disk"/"coalesced") and a
// server.cache trace event, so clients and the load generator can separate
// warm serving from engine-priced coalesced waits.
func (s *Server) analyzeCached(w http.ResponseWriter, req *http.Request, a *proofs.Analysis, key cache.Key, d time.Duration) {
	m := s.metrics()
	tr := obs.TracerFrom(req.Context())
	ent, out, err := s.cfg.Cache.Do(req.Context(), key, func() (cache.Entry, bool) {
		release, ok := s.admit(w, req)
		if !ok {
			return cache.Entry{}, false
		}
		defer release()
		ctx, cancel := s.sharedContext(req, d)
		defer cancel()
		res, bound := s.runPair(ctx, a)
		e := cache.Entry{Result: res}
		if bound != nil {
			if raw, merr := json.Marshal(bound); merr == nil {
				e.Binding = raw
			}
		}
		return e, true
	})
	tr.Event("server.cache", map[string]any{"outcome": out.String()})
	switch {
	case err == nil:
		w.Header().Set("X-Cache", out.String())
		m.Inc("server.outcome", ent.Result.Outcome)
		s.writeResult(w, req, ent.Result)
	case errors.Is(err, cache.ErrNoResult) && !out.Shared():
		// This request was the leader and admission already wrote its 429/503.
	case errors.Is(err, cache.ErrNoResult):
		// Coalesced onto a leader that was shed: shed this request too.
		m.Inc("server.shed", req.URL.Path)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "admission queue full")
	default:
		// The client went away (or the drain hard-stopped) while waiting on
		// another request's run.
		m.Inc("server.refused", "client-gone")
		writeError(w, http.StatusServiceUnavailable, "client went away while coalesced")
	}
}

// maxBatchBody caps a POST /batch body. The body is read before admission,
// so without a cap every concurrent request could buffer any amount; the
// whole catalog's pair list is under 1 KiB.
const maxBatchBody = 1 << 20

// batchRequest is the POST /batch body. Every field is optional: the zero
// request runs the full catalog with the server's defaults.
type batchRequest struct {
	// Pairs selects catalog rows ("INSTRUCTION/OPERATOR"); empty means all.
	Pairs []string `json:"pairs,omitempty"`
	// Validate overrides the server's per-binding validation input count.
	Validate int `json:"validate,omitempty"`
	// Timeout bounds each analysis (Go duration string).
	Timeout string `json:"timeout,omitempty"`
}

// handleBatch runs a catalog subset through the concurrent batch runner and
// returns the full JSON report (rows + summary). The request occupies one
// admission slot; within it the batch multiplexes the configured job count.
func (s *Server) handleBatch(w http.ResponseWriter, req *http.Request) {
	s.metrics().Inc("server.requests", "/batch")
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var breq batchRequest
	body := http.MaxBytesReader(w, req.Body, maxBatchBody)
	if err := json.NewDecoder(body).Decode(&breq); err != nil && !errors.Is(err, io.EOF) {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad request body: "+err.Error())
		return
	}
	analyses := s.catalog
	if len(breq.Pairs) > 0 {
		analyses = make([]*proofs.Analysis, 0, len(breq.Pairs))
		for _, p := range breq.Pairs {
			a, ok := s.byPair[p]
			if !ok {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("no analysis %q in the catalog", p))
				return
			}
			analyses = append(analyses, a)
		}
	}
	var each time.Duration
	if breq.Timeout != "" {
		d, err := time.ParseDuration(breq.Timeout)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad timeout (want a positive Go duration)")
			return
		}
		each = d
	}
	validate := s.cfg.Validate
	if breq.Validate > 0 {
		validate = breq.Validate
	}

	// Warm rows are collected before admission: cache hits become the
	// runner's Completed skip set, and a fully-warm batch is served without
	// occupying a worker slot at all.
	completed := map[string]batch.Result{}
	keys := map[string]cache.Key{}
	if s.cfg.Cache != nil {
		for _, a := range analyses {
			k, cacheable := cache.KeyFor(a, validate)
			if !cacheable {
				continue
			}
			keys[batch.AnalysisKey(a)] = k
			if ent, hit := s.cfg.Cache.Get(k); hit {
				completed[batch.AnalysisKey(a)] = ent.Result
			}
		}
	}
	tr := obs.TracerFrom(req.Context())
	if tr == nil {
		tr = s.cfg.Tracer
	}
	r := &batch.Runner{
		Jobs: cap(s.workers), Validate: validate, EachTimeout: each,
		Completed: completed,
		Tracer:    tr, Metrics: s.cfg.Metrics,
		OnResult: s.report,
		OnBound: func(res batch.Result, bound *core.Binding) {
			k, cacheable := keys[res.Key()]
			if !cacheable || s.cfg.Cache == nil {
				return
			}
			e := cache.Entry{Result: res}
			if bound != nil {
				if raw, merr := json.Marshal(bound); merr == nil {
					e.Binding = raw
				}
			}
			s.cfg.Cache.Put(k, e)
		},
	}
	writeReport := func(results []batch.Result) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		batch.WriteJSON(w, results)
	}
	if len(completed) == len(analyses) {
		// Every row is warm: serve the report straight from the skip set.
		writeReport(r.Run(req.Context(), analyses))
		return
	}
	release, ok := s.admit(w, req)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(req, 0)
	defer cancel()
	start := time.Now()
	results := r.Run(ctx, analyses)
	if executed := len(analyses) - len(completed); executed > 0 {
		// Fold the per-analysis average into the shed estimate.
		s.observeService(time.Since(start) / time.Duration(executed))
	}
	writeReport(results)
}

// Run listens on cfg.Addr, reports the bound address through ready (which
// may be nil), serves until ctx is cancelled, then shuts down gracefully:
// stop admitting, hold DrainGrace so health checks observe the flip, drain
// in-flight requests under DrainTimeout, and hard-cancel whatever remains.
// A clean drain returns nil.
func (s *Server) Run(ctx context.Context, ready func(net.Addr)) error {
	lis, err := net.Listen("tcp", s.cfg.addr())
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(lis) }()
	m := s.metrics()
	m.Set("server.up", "listening", 1)
	if ready != nil {
		ready(lis.Addr())
	}
	select {
	case err := <-errc:
		s.workStop()
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: flip readiness first so new work is refused while
	// the listener still answers health checks, then drain.
	s.draining.Store(true)
	m.Set("server.up", "listening", 0)
	if g := s.cfg.DrainGrace; g > 0 {
		time.Sleep(g)
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.drainTimeout())
	defer cancel()
	err = hs.Shutdown(dctx)
	if err != nil {
		// Drain deadline passed: hard-cancel in-flight analyses so their
		// handlers return, then close whatever connections remain.
		s.workStop()
		hs.Close()
		<-errc
		m.Inc("server.drain", "forced")
		return fmt.Errorf("drain deadline exceeded: %w", err)
	}
	s.workStop()
	<-errc // Serve has returned http.ErrServerClosed
	m.Inc("server.drain", "clean")
	return nil
}
