package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"extra/internal/batch"
	"extra/internal/cache"
	"extra/internal/obs"
	"extra/internal/proofs"
	"extra/internal/server"
)

const (
	// serveRate is the open-loop request rate, well below what two engine
	// workers sustain on this mix.
	serveRate = 200
	// serveBlock and serveColdPerBlock fix the mix: every block of 20
	// requests has exactly 4 cold ones, so 80% go to the hot pairs and the
	// op p90 falls in the middle of the cold pairs' costs, not on the step
	// between two of them.
	serveBlock        = 20
	serveColdPerBlock = 4
	// serveEntries sits between the hot set (2) and the catalog (17). The
	// cache is an 8-way sharded LRU, so 8 entries leave one per shard: the
	// two hot pairs are alone in their shards and stay cached, while every
	// other pair shares a shard with other cold pairs and is evicted before
	// the rotation comes back to it.
	serveEntries = 8
	// serveLimit is the goodput latency limit: a 200 counts toward
	// goodput_rps only when it arrived within this time of its due time.
	serveLimit = 25 * time.Millisecond
	// serveTraceN is the size of the traced slice, and serveOpenN the number
	// of requests of a run's open loop (7 s at serveRate): both leave at
	// least 10 warm samples beyond the warm p99.
	serveTraceN = 1000
	serveOpenN  = 1400
	// serveSerialN is the length of the serial phase's request sequence,
	// whole blocks; the phase wraps around it if it gets that far.
	serveSerialN = serveBlock * 4096
)

// hotPairs are the pairs most requests go to.
var hotPairs = []string{"movsb/sassign", "tr/xlate"}

// serveBench is the analysis service on loopback at its default
// -validate 0, fronted by a small cache. A run sends the seeded request
// mix serially (the CPU-timed ops), then open loop from two client
// connections (the wall-clock latencies). One op is one /analyze request.
type serveBench struct {
	addr     string
	client   *http.Client
	stop     context.CancelFunc
	done     chan error
	ref      map[string]refRow
	analyses map[string]*proofs.Analysis
	cold     []string
	seed     int64
}

func setupServe(seed int64, _ string) (bench, error) {
	all, ref, err := catalogRefs()
	if err != nil {
		return nil, err
	}
	s := &serveBench{ref: ref, analyses: map[string]*proofs.Analysis{}, seed: seed}
	for _, a := range all {
		s.analyses[pairOf(a)] = a
		if !isHot(pairOf(a)) {
			s.cold = append(s.cold, pairOf(a))
		}
	}
	reg := obs.NewRegistry()
	c, err := cache.New(cache.Config{Entries: serveEntries, Metrics: reg})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Jobs: clients, Cache: c, Metrics: reg})
	ctx, cancel := context.WithCancel(context.Background())
	s.stop, s.done = cancel, make(chan error, 1)
	ready := make(chan net.Addr, 1)
	go func() { s.done <- srv.Run(ctx, func(a net.Addr) { ready <- a }) }()
	select {
	case a := <-ready:
		s.addr = a.String()
	case err := <-s.done:
		cancel()
		return nil, fmt.Errorf("server: %w", err)
	}
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
		Timeout:   time.Minute,
	}
	for _, p := range hotPairs {
		if _, msg := s.request(p); msg != "" {
			s.close()
			return nil, fmt.Errorf("prewarm: %s", msg)
		}
	}
	return s, nil
}

func isHot(pair string) bool {
	for _, h := range hotPairs {
		if h == pair {
			return true
		}
	}
	return false
}

// sequence is the seeded request sequence: in each block of serveBlock
// requests, serveColdPerBlock seeded positions go to the next cold pair of
// a rotation that starts at a seeded offset, the rest to a random hot pair.
func (s *serveBench) sequence(n int) []string {
	rng := rand.New(rand.NewSource(s.seed))
	next := rng.Intn(len(s.cold))
	out := make([]string, n)
	for b := 0; b < n; b += serveBlock {
		cold := map[int]bool{}
		for _, i := range rng.Perm(serveBlock)[:serveColdPerBlock] {
			cold[i] = true
		}
		for i := 0; i < serveBlock && b+i < n; i++ {
			if cold[i] {
				out[b+i] = s.cold[next%len(s.cold)]
				next++
			} else {
				out[b+i] = hotPairs[rng.Intn(len(hotPairs))]
			}
		}
	}
	return out
}

// request sends one /analyze and checks the row against the catalog's
// reference binding. It returns the X-Cache outcome and "" when the check
// passed.
func (s *serveBench) request(pair string) (xcache, failed string) {
	resp, err := s.client.Get("http://" + s.addr + "/analyze?pair=" + url.QueryEscape(pair))
	if err != nil {
		return "", fmt.Sprintf("%s: %v", pair, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	xcache = resp.Header.Get("X-Cache")
	if err != nil {
		return xcache, fmt.Sprintf("%s: reading body: %v", pair, err)
	}
	if resp.StatusCode != http.StatusOK {
		return xcache, fmt.Sprintf("%s: status %d: %s", pair, resp.StatusCode, body)
	}
	var row batch.Result
	if err := json.Unmarshal(body, &row); err != nil {
		return xcache, fmt.Sprintf("%s: body: %v", pair, err)
	}
	want := s.ref[pair]
	if row.Outcome != "ok" || row.Pair() != pair || row.Steps != want.steps || row.Elementary != want.elementary {
		return xcache, fmt.Sprintf("%s: row %s %s %d/%d steps, reference ok %d/%d",
			pair, row.Pair(), row.Outcome, row.Steps, row.Elementary, want.steps, want.elementary)
	}
	return xcache, ""
}

// openLoop drives the request sequence at serveRate from two connections.
func (s *serveBench) openLoop(seq []string) ([]sample, time.Duration) {
	return openLoop(len(seq), time.Second/serveRate, clients, func(i int) sample {
		cls, failed := s.request(seq[i])
		return sample{class: cls, failed: failed}
	})
}

// run sends the serial phase for d and, in a run's last part, the open
// loop after it. The serial phase gives the CPU time of a request, client
// and server together; the open loop gives what a client waits, so the
// wall-time metrics are the open loop's, and the other parts report none.
func (s *serveBench) run(d time.Duration, last bool) (*outcome, error) {
	serial := s.sequence(serveSerialN)
	o := drive(d, serveBlock, func(k int) (string, string) {
		pair := serial[k%len(serial)]
		_, failed := s.request(pair)
		return pair, failed
	})
	o.wall = false
	if !last {
		return o, nil
	}
	seq := s.sequence(serveOpenN)
	procs := runtime.GOMAXPROCS(clients) // one per client connection
	var elapsed time.Duration
	o.open, elapsed = s.openLoop(seq)
	runtime.GOMAXPROCS(procs)
	var all, warm, cold []float64
	good := 0
	for _, smp := range o.open {
		all = append(all, smp.ms)
		switch {
		case smp.failed != "":
			o.fail(smp.failed)
			continue
		case smp.class == cache.OutcomeHitMem.String():
			warm = append(warm, smp.ms)
		case smp.class == cache.OutcomeMiss.String():
			cold = append(cold, smp.ms)
		}
		if smp.ms <= float64(serveLimit)/1e6 {
			good++
		}
	}
	if err := percentiles(o.extra, pct{"op_p50_ms", all, 50}, pct{"op_p90_ms", all, 90},
		pct{"warm_p99_ms", warm, 99}, pct{"cold_p50_ms", cold, 50}); err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	o.extra["ops_per_s"] = float64(len(o.open)) / elapsed.Seconds()
	o.extra["goodput_rps"] = float64(good) / elapsed.Seconds()
	return o, nil
}

// entry sends the traced slice open loop, as in the untraced run, and
// reads the cache and server layers from X-Cache headers and /metrics.
func (s *serveBench) entry(m map[string]float64) error {
	samples, _ := s.openLoop(s.sequence(serveTraceN))
	var late []float64
	hits := 0
	for _, smp := range samples {
		if smp.failed != "" {
			return fmt.Errorf("entry pass: %s", smp.failed)
		}
		late = append(late, smp.late)
		if smp.class == cache.OutcomeHitMem.String() || smp.class == cache.OutcomeHitDisk.String() {
			hits++
		}
	}
	var err error
	if m["loadgen.late_p99_ms"], err = percentile(late, 99); err != nil {
		return err
	}
	m["cache.hit_ratio"] = float64(hits) / float64(len(samples))
	snap, err := s.metrics()
	if err != nil {
		return err
	}
	for _, c := range snap.Counters {
		if c.Metric == "cache.evicted" {
			m["cache.evictions"] += float64(c.Value)
		}
	}
	var service []obs.HistSnap
	for _, h := range snap.Histograms {
		switch {
		case h.Metric == "server.queue_wait.ns" && h.Label == "/analyze":
			m["server.queue_wait.p99_ns"] = float64(h.P99)
		case h.Metric == "server.service.ns":
			service = append(service, h)
		}
	}
	m["server.service.p50_ns"] = histQuantile(service, 0.5)
	return nil
}

// metrics reads the server's /metrics snapshot.
func (s *serveBench) metrics() (*obs.Snapshot, error) {
	resp, err := s.client.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &snap, nil
}

// histQuantile merges the power-of-two buckets of several histogram series
// (the service histogram has one per pair) and returns the q-quantile,
// interpolated linearly inside its bucket.
func histQuantile(hs []obs.HistSnap, q float64) float64 {
	counts := map[uint64]uint64{} // exclusive upper bound -> count
	var total uint64
	for _, h := range hs {
		for _, b := range h.Buckets {
			le, err := strconv.ParseUint(b.Le, 10, 64)
			if err != nil {
				continue // the "inf" bucket
			}
			counts[le] += b.Count
			total += b.Count
		}
	}
	rank := uint64(q*float64(total) + 0.5)
	var seen uint64
	for le := uint64(1); le != 0; le <<= 1 {
		n := counts[le]
		if n == 0 || seen+n < rank {
			seen += n
			continue
		}
		lo := float64(le / 2)
		return lo + (float64(le)-lo)*float64(rank-seen)/float64(n)
	}
	return 0
}

// layers sends the traced slice serially; each cold request is followed by
// the cold path's engine work as separate layer calls (parse, intern,
// session, script, match), which splits what the server did inside the
// request by layer.
func (s *serveBench) layers(t *tracer, cnt counts) error {
	for _, pair := range s.sequence(serveTraceN) {
		var failed string
		_ = t.do("server.request", func() error {
			_, failed = s.request(pair)
			return nil
		})
		cnt.add("ops", 1)
		if failed != "" {
			cnt.add("failed", 1)
			continue
		}
		if isHot(pair) {
			continue
		}
		a := s.analyses[pair]
		sess, err := analysisSession(t, cnt, a)
		if err != nil {
			return err
		}
		b, err := scriptAndMatch(t, cnt, a, sess)
		if err != nil {
			return err
		}
		if want := s.ref[pair]; b.Steps != want.steps || b.Elementary != want.elementary {
			cnt.add("failed", 1)
		}
	}
	return nil
}

func (s *serveBench) close() error {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	s.stop()
	return <-s.done
}
