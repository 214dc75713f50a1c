package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"extra/internal/batch"
	"extra/internal/cache"
	"extra/internal/core"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// gatedAnalysis wraps one analysis so its script blocks on a private gate —
// like gatedCatalog, but composable when a test needs several distinct
// in-flight pairs at once.
func gatedAnalysis(a *proofs.Analysis) (*proofs.Analysis, chan struct{}, func()) {
	orig := a.Script
	started := make(chan struct{}, 64)
	gate := make(chan struct{})
	a.Script = func(s *core.Session) error {
		started <- struct{}{}
		<-gate
		return orig(s)
	}
	var once sync.Once
	return a, started, func() { once.Do(func() { close(gate) }) }
}

// seedCache puts a fabricated "ok" row for the analysis into the cache and
// returns the row as the client should see it.
func seedCache(t *testing.T, c *cache.Cache, a *proofs.Analysis, validate int) batch.Result {
	t.Helper()
	k, ok := cache.KeyFor(a, validate)
	if !ok {
		t.Fatalf("%s/%s not cacheable", a.Instruction, a.Operator)
	}
	res := batch.Result{
		Machine: a.Machine, Instruction: a.Instruction,
		Language: a.Language, Operation: a.Operation, Operator: a.Operator,
		Outcome: "ok", Steps: 777, Elementary: 11,
	}
	c.Put(k, res)
	return res
}

// TestWarmHitSkipsAdmission: with one worker and a one-deep queue fully
// occupied by in-flight cold work, a warm request for a cached pair is still
// served 200 immediately — the cache answers before admission control, so a
// hit never needs a worker slot.
func TestWarmHitSkipsAdmission(t *testing.T) {
	m := obs.NewRegistry()
	// Two distinct gated pairs: with the cache's singleflight in play,
	// identical requests would coalesce instead of queueing, so saturating
	// admission takes one in-flight request per pair.
	a1, started1, unblock1 := gatedAnalysis(proofs.LoccRigel())
	a2, _, unblock2 := gatedAnalysis(proofs.Movc3PC2())
	warmA := proofs.ScasbRigel()
	cat := []*proofs.Analysis{a1, a2, warmA}
	c, err := cache.New(cache.Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	want := seedCache(t, c, warmA, 0)

	s := New(Config{Jobs: 1, Queue: 1, Catalog: cat, Metrics: m, Cache: c})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// LIFO: the gates open before ts.Close waits on outstanding requests.
	defer unblock1()
	defer unblock2()
	warmURL := ts.URL + "/analyze?pair=" + warmA.Instruction + "/" + warmA.Operator

	// Saturate the system: a1 on the worker, a2 waiting in the queue.
	replies := make(chan int, 2)
	for _, a := range []*proofs.Analysis{a1, a2} {
		url := ts.URL + "/analyze?pair=" + a.Instruction + "/" + a.Operator
		go func() {
			status, _ := getResult(t, ts.Client(), url)
			replies <- status
		}()
		if a == a1 {
			<-started1
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for s.inSystem.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.inSystem.Load() < 2 {
		t.Fatal("system never saturated")
	}

	// The system is full (a third cold request would be shed), yet the warm
	// pair answers 200 with the cached row.
	status, res := getResult(t, ts.Client(), warmURL)
	if status != http.StatusOK {
		t.Fatalf("warm hit under full admission: status %d, want 200", status)
	}
	if res.Steps != want.Steps || res.Outcome != "ok" {
		t.Errorf("warm row %+v does not match the cached row %+v", res, want)
	}
	if m.Counter("cache.hit", "mem") == 0 {
		t.Error("warm serve not counted as a memory hit")
	}
	if m.Counter("server.shed", "/analyze") != 0 {
		t.Error("the warm request was shed; it must bypass admission")
	}

	unblock1()
	unblock2()
	for i := 0; i < 2; i++ {
		if status := <-replies; status != http.StatusOK {
			t.Errorf("cold request %d: status %d, want 200", i, status)
		}
	}
}

// TestAnalyzeDogpileCoalesces is the serve-path singleflight test (run
// under -race by CI): N identical concurrent requests for an uncached pair
// cost exactly one engine run; the rest coalesce onto it and all N get the
// same 200 row.
func TestAnalyzeDogpileCoalesces(t *testing.T) {
	const n = 6
	m := obs.NewRegistry()
	cat, started, unblock := gatedCatalog()
	c, err := cache.New(cache.Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Jobs: 4, Queue: 8, Catalog: cat, Metrics: m, Cache: c})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// LIFO: the gate opens before ts.Close waits on outstanding requests.
	defer unblock()
	url := ts.URL + "/analyze?pair=" + cat[0].Instruction + "/" + cat[0].Operator

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, res := getResult(t, ts.Client(), url)
			if status != http.StatusOK || res.Outcome != "ok" {
				t.Errorf("coalesced request: status %d outcome %s (%s)", status, res.Outcome, res.Error)
			}
		}()
	}
	// The leader is inside the engine; wait for every follower to register
	// as coalesced before releasing it.
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for m.Counter("cache.coalesced", "") < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.Counter("cache.coalesced", ""); got != n-1 {
		t.Fatalf("cache.coalesced = %d, want %d", got, n-1)
	}
	unblock()
	wg.Wait()

	// Exactly one engine run: the gate saw one entry and no more arrived.
	select {
	case <-started:
		t.Error("a second engine run started for the dogpiled pair")
	default:
	}
}

// TestMissReportsItsRunTime: the request whose engine run answered it
// reports that run's duration_ms, and the hit that follows reports its own
// serve cost (0 ms). Apart from duration and trace ID the two rows are the
// same row.
func TestMissReportsItsRunTime(t *testing.T) {
	const hold = 50 * time.Millisecond
	m := obs.NewRegistry()
	a, started, unblock := gatedAnalysis(proofs.ScasbRigel())
	c, err := cache.New(cache.Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Catalog: []*proofs.Analysis{a}, Metrics: m, Cache: c})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer unblock()
	url := ts.URL + "/analyze?pair=" + a.Instruction + "/" + a.Operator
	type reply struct {
		xcache string
		res    batch.Result
	}
	get := func() reply {
		resp, err := ts.Client().Get(url)
		if err != nil {
			t.Errorf("GET %s: %v", url, err)
			return reply{}
		}
		defer resp.Body.Close()
		var r reply
		r.xcache = resp.Header.Get("X-Cache")
		if err := json.NewDecoder(resp.Body).Decode(&r.res); err != nil {
			t.Errorf("GET %s: bad body: %v", url, err)
		}
		return r
	}

	replies := make(chan reply, 1)
	go func() { replies <- get() }()
	<-started // the engine run is inside the script; hold it there
	time.Sleep(hold)
	unblock()
	miss := <-replies
	hit := get()
	if miss.xcache != "miss" || miss.res.Outcome != "ok" || miss.res.DurationMS < hold.Milliseconds() {
		t.Errorf("cold request: X-Cache %q, outcome %q, duration_ms %d; want miss, ok, >= %d",
			miss.xcache, miss.res.Outcome, miss.res.DurationMS, hold.Milliseconds())
	}
	if hit.xcache != "hit" || hit.res.DurationMS != 0 {
		t.Errorf("repeat request: X-Cache %q, duration_ms %d; want hit, 0", hit.xcache, hit.res.DurationMS)
	}
	miss.res.DurationMS, miss.res.Trace = 0, ""
	hit.res.DurationMS, hit.res.Trace = 0, ""
	if miss.res != hit.res {
		t.Errorf("hit row differs from the miss row modulo duration and trace:\nmiss: %+v\nhit:  %+v", miss.res, hit.res)
	}
}

// TestRetryAfterDerived pins the shed estimate: floor 1s before anything has
// run, queue-length × EWMA service time once observations exist, rounded up,
// capped at ten minutes.
func TestRetryAfterDerived(t *testing.T) {
	s := New(Config{Jobs: 2, Queue: 8, Metrics: obs.NewRegistry()})
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("pre-observation Retry-After = %d, want the 1s floor", got)
	}
	s.observeService(3 * time.Second)
	if got := time.Duration(s.avgServiceNS.Load()); got != 3*time.Second {
		t.Fatalf("first observation: avg %v, want 3s", got)
	}
	// EWMA, α=1/8: 3s + (11s-3s)/8 = 4s.
	s.observeService(11 * time.Second)
	if got := time.Duration(s.avgServiceNS.Load()); got != 4*time.Second {
		t.Errorf("EWMA after 3s,11s: %v, want 4s", got)
	}
	// 5 in system, 2 workers → 3 queued ahead; 3 × 4s = 12s.
	s.inSystem.Store(5)
	if got := s.retryAfterSeconds(); got != 12 {
		t.Errorf("Retry-After with 3 queued × 4s avg = %d, want 12", got)
	}
	// Nothing queued: the floor again.
	s.inSystem.Store(1)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("Retry-After with an idle queue = %d, want 1", got)
	}
	// A pathological average cannot promise hours.
	s.avgServiceNS.Store(int64(time.Hour))
	s.inSystem.Store(10)
	if got := s.retryAfterSeconds(); got != 600 {
		t.Errorf("Retry-After cap = %d, want 600", got)
	}
	// Sub-second backlogs round up to a full second, never zero.
	s.avgServiceNS.Store(int64(400 * time.Millisecond))
	s.inSystem.Store(3)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("Retry-After for a 400ms backlog = %d, want 1", got)
	}
}

// TestCanceledLeaderDoesNotPoisonFollowers pins the shared-computation
// contract behind the coalescing leader's runContext, whose parent drops the
// client's cancellation: the singleflight leader's client hanging up
// must not cancel the engine run that coalesced followers are waiting on.
// Any client can hang up mid-run — a timeout, a retry, a closed tab — and
// without this contract, if that client led a flight, every innocent
// follower got its "canceled" 503.
func TestCanceledLeaderDoesNotPoisonFollowers(t *testing.T) {
	m := obs.NewRegistry()
	cat, started, unblock := gatedCatalog()
	c, err := cache.New(cache.Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Jobs: 4, Queue: 8, Catalog: cat, Metrics: m, Cache: c})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer unblock()
	url := ts.URL + "/analyze?pair=" + cat[0].Instruction + "/" + cat[0].Operator

	// Leader: a client that will hang up mid-run.
	leaderCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	leaderErr := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(leaderCtx, http.MethodGet, url, nil)
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderErr <- err
	}()
	<-started // the leader is inside the engine, holding the flight

	// Follower coalesces onto the leader's flight.
	followerStatus := make(chan int, 1)
	followerRes := make(chan batch.Result, 1)
	go func() {
		status, res := getResult(t, ts.Client(), url)
		followerStatus <- status
		followerRes <- res
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.Counter("cache.coalesced", "") < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.Counter("cache.coalesced", ""); got < 1 {
		t.Fatal("follower never coalesced onto the leader's flight")
	}

	// The leader's client hangs up; give the cancellation time to (wrongly)
	// reach the engine context before the run is allowed to proceed.
	hangUp()
	if err := <-leaderErr; err == nil {
		t.Error("leader's canceled request returned no error")
	}
	time.Sleep(50 * time.Millisecond)
	unblock()

	if status := <-followerStatus; status != http.StatusOK {
		res := <-followerRes
		t.Fatalf("follower: status %d outcome %q (%s), want 200 ok", status, res.Outcome, res.Error)
	}
	if res := <-followerRes; res.Outcome != "ok" {
		t.Fatalf("follower outcome %q (%s), want ok", res.Outcome, res.Error)
	}
}
