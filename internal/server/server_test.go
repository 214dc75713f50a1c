package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extra/internal/batch"
	"extra/internal/core"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// checkGoroutines fails the test if the goroutine count has not settled back
// to its starting level — the no-leak contract for serve and drain.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	var after int
	for time.Now().Before(deadline) {
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after", before, after)
}

func getResult(t *testing.T, client *http.Client, url string) (int, batch.Result) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var res batch.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("GET %s: bad body: %v", url, err)
	}
	return resp.StatusCode, res
}

// TestAnalyzeEndpoint: the happy path returns the analysis row with a 200,
// an unknown pair is a 404, and malformed requests are 4xx.
func TestAnalyzeEndpoint(t *testing.T) {
	s := New(Config{Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, res := getResult(t, ts.Client(), ts.URL+"/analyze?pair=scasb/index")
	if status != http.StatusOK || res.Outcome != "ok" {
		t.Fatalf("analyze scasb/index: status %d outcome %s (%s)", status, res.Outcome, res.Error)
	}
	if res.Instruction != "scasb" || res.Operator != "index" || res.Steps <= 0 {
		t.Errorf("row %+v does not describe the requested analysis", res)
	}

	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/analyze?pair=nosuch/pair", http.StatusNotFound},
		{"/analyze", http.StatusBadRequest},
		{"/analyze?pair=scasb/index&timeout=bogus", http.StatusBadRequest},
		{"/analyze?pair=scasb/index&timeout=-1s", http.StatusBadRequest},
	} {
		resp, err := ts.Client().Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}

	resp, err := ts.Client().Post(ts.URL+"/analyze?pair=scasb/index", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /analyze: status %d, want 200", resp.StatusCode)
	}
}

// TestAnalyzeTimeout: a tiny explicit deadline reaches the engine's
// cancellation plumbing and comes back as a timeout row with a 504.
func TestAnalyzeTimeout(t *testing.T) {
	s := New(Config{Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, res := getResult(t, ts.Client(), ts.URL+"/analyze?pair=scasb/index&timeout=1ns")
	if status != http.StatusGatewayTimeout || res.Outcome != "timeout" {
		t.Fatalf("status %d outcome %s, want 504/timeout", status, res.Outcome)
	}
}

// TestAnalyzePanicRunsEveryRequest: a panicking pair answers 500 with its
// panic row on every request, and every request is one fresh engine run —
// a failure is never served from memory.
func TestAnalyzePanicRunsEveryRequest(t *testing.T) {
	a := proofs.Movc3PC2()
	var runs atomic.Int64
	a.Script = func(*core.Session) error {
		runs.Add(1)
		panic("injected fault")
	}
	s := New(Config{Catalog: []*proofs.Analysis{a}, Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/analyze?pair=" + a.Instruction + "/" + a.Operator
	const n = 6
	for i := 0; i < n; i++ {
		if status, res := getResult(t, ts.Client(), url); status != http.StatusInternalServerError || res.Outcome != "panic" {
			t.Fatalf("request %d: status %d outcome %s, want 500/panic", i, status, res.Outcome)
		}
	}
	if got := runs.Load(); got != n {
		t.Fatalf("%d requests ran the analysis %d times, want one run each", n, got)
	}
}

// TestMetricsAndHealth: /metrics serves the registry as valid JSON and the
// health endpoints report the expected states while serving.
func TestMetricsAndHealth(t *testing.T) {
	m := obs.NewRegistry()
	s := New(Config{Metrics: m})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, res := getResult(t, ts.Client(), ts.URL+"/analyze?pair=locc/indexc"); res.Outcome != "ok" {
		t.Fatalf("warmup analysis: %s (%s)", res.Outcome, res.Error)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Counters []struct {
			Metric string `json:"metric"`
			Label  string `json:"label"`
			Value  uint64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	found := false
	for _, c := range doc.Counters {
		if c.Metric == "server.requests" && c.Label == "/analyze" && c.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("/metrics lacks the server.requests//analyze counter")
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		r, err := ts.Client().Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d while serving, want 200", probe, r.StatusCode)
		}
	}
}

// gatedCatalog wraps a fresh analysis so its script blocks on a gate before
// running the real proof — in-flight work the tests can hold open at will.
func gatedCatalog() (cat []*proofs.Analysis, started chan struct{}, unblock func()) {
	a := proofs.LoccRigel()
	orig := a.Script
	started = make(chan struct{}, 64)
	gate := make(chan struct{})
	a.Script = func(s *core.Session) error {
		started <- struct{}{}
		<-gate
		return orig(s)
	}
	var once sync.Once
	return []*proofs.Analysis{a}, started, func() { once.Do(func() { close(gate) }) }
}

// TestAdmissionShedding: with one worker and a one-deep queue, the third
// concurrent request is shed with 429 + Retry-After while both admitted
// requests are served to completion.
func TestAdmissionShedding(t *testing.T) {
	m := obs.NewRegistry()
	cat, started, unblock := gatedCatalog()
	defer unblock()
	s := New(Config{Jobs: 1, Queue: 1, Catalog: cat, Metrics: m})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/analyze?pair=" + cat[0].Instruction + "/" + cat[0].Operator

	type reply struct {
		status  int
		outcome string
	}
	replies := make(chan reply, 2)
	get := func() {
		status, res := getResult(t, ts.Client(), url)
		replies <- reply{status, res.Outcome}
	}
	go get() // admitted: takes the worker slot and blocks on the gate
	<-started

	go get() // admitted: waits in the queue
	deadline := time.Now().Add(3 * time.Second)
	for s.inSystem.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.inSystem.Load() < 2 {
		t.Fatal("second request never entered the admission queue")
	}

	// Over capacity: must shed, not queue.
	resp, err := ts.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third concurrent request: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("429 Retry-After %q is not a positive integer (derived estimate, floor 1s)",
			resp.Header.Get("Retry-After"))
	}
	if m.Counter("server.shed", "/analyze") == 0 {
		t.Error("shed request not counted in server.shed")
	}

	unblock()
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK || r.outcome != "ok" {
			t.Errorf("admitted request %d: status %d outcome %s, want 200/ok", i, r.status, r.outcome)
		}
	}
}

// TestBatchEndpoint: a pairs subset comes back as the standard batch report,
// and an unknown pair in the subset is a 400 before any work runs.
func TestBatchEndpoint(t *testing.T) {
	s := New(Config{Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := strings.NewReader(`{"pairs": ["scasb/index", "locc/indexc"]}`)
	resp, err := ts.Client().Post(ts.URL+"/batch", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: status %d, want 200", resp.StatusCode)
	}
	var doc struct {
		Results []batch.Result `json:"results"`
		Summary map[string]int `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/batch body is not a report: %v", err)
	}
	if len(doc.Results) != 2 || doc.Summary["ok"] != 2 {
		t.Fatalf("report %+v, want 2 ok rows", doc.Summary)
	}

	bad, err := ts.Client().Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"pairs": ["no/such"]}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown pair in /batch: status %d, want 400", bad.StatusCode)
	}
	get, err := ts.Client().Get(ts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch: status %d, want 405", get.StatusCode)
	}
}

// TestBatchBodyCapped: a /batch body past maxBatchBody is refused with 413
// before any analysis runs. The body is decoded before admission, so an
// uncapped body would let every concurrent request buffer any amount.
func TestBatchBodyCapped(t *testing.T) {
	var rows atomic.Int64
	s := New(Config{Metrics: obs.NewRegistry(), OnResult: func(batch.Result) { rows.Add(1) }})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"pairs":["scasb/index"]` + strings.Repeat(" ", 2<<20) + `}`
	resp, err := ts.Client().Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB /batch body: status %d, want 413", resp.StatusCode)
	}
	if n := rows.Load(); n != 0 {
		t.Errorf("an oversized /batch body still ran %d analyses", n)
	}
}

// TestGracefulDrain is the shutdown acceptance test: cancelling Run's
// context flips readiness, refuses new work with 503 while in-flight
// requests complete, then Run returns nil with no goroutines left behind.
func TestGracefulDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	m := obs.NewRegistry()
	cat, started, unblock := gatedCatalog()
	defer unblock()
	s := New(Config{
		Jobs: 2, Catalog: cat, Metrics: m,
		DrainGrace: 200 * time.Millisecond, DrainTimeout: 5 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, func(a net.Addr) { addrc <- a }) }()
	addr := (<-addrc).String()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + addr
	url := base + "/analyze?pair=" + cat[0].Instruction + "/" + cat[0].Operator

	// One request in flight, held open at the gate.
	inflight := make(chan batch.Result, 1)
	go func() {
		_, res := getResult(t, client, url)
		inflight <- res
	}()
	<-started

	// Begin the drain. During DrainGrace the listener still answers:
	// readiness is down and new work is refused.
	cancel()
	time.Sleep(20 * time.Millisecond)
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("readyz during drain grace: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: status %d, want 503", resp.StatusCode)
	}
	resp, err = client.Get(url)
	if err != nil {
		t.Fatalf("new work during drain grace: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new work during drain: status %d, want 503", resp.StatusCode)
	}

	// The in-flight request must be allowed to finish, and the drain must
	// then complete cleanly.
	unblock()
	if res := <-inflight; res.Outcome != "ok" {
		t.Errorf("in-flight request during drain: outcome %s (%s), want ok", res.Outcome, res.Error)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want nil for a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the drain")
	}
	if m.Counter("server.drain", "clean") != 1 {
		t.Error("clean drain not counted in server.drain")
	}
	client.CloseIdleConnections()
	checkGoroutines(t, before)
}

// TestDrainDeadlineForcesCancel: work that outlives DrainTimeout is
// hard-cancelled through the engine's context plumbing and Run reports the
// forced drain as an error instead of hanging.
func TestDrainDeadlineForcesCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	m := obs.NewRegistry()
	a := proofs.LoccRigel()
	orig := a.Script
	started := make(chan struct{}, 1)
	a.Script = func(s *core.Session) error {
		started <- struct{}{}
		// Engine-visible stall: the proof never progresses, so only the
		// hard-cancel at the drain deadline can end this request.
		time.Sleep(2 * time.Second)
		return orig(s)
	}
	s := New(Config{
		Jobs: 1, Catalog: []*proofs.Analysis{a}, Metrics: m,
		DrainTimeout: 100 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, func(ad net.Addr) { addrc <- ad }) }()
	addr := (<-addrc).String()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/analyze?pair=" + a.Instruction + "/" + a.Operator

	done := make(chan struct{})
	go func() {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	<-started
	cancel()
	select {
	case err := <-runErr:
		if err == nil {
			t.Error("Run returned nil for a forced drain; want the deadline error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the drain deadline")
	}
	if m.Counter("server.drain", "forced") != 1 {
		t.Error("forced drain not counted in server.drain")
	}
	<-done
	client.CloseIdleConnections()
	checkGoroutines(t, before)
}
