package main

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 .. 1, unsorted on purpose
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 50}, {90, 90}, {10, 10}} {
		got, err := percentile(xs, tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%g of 1..100 = %g, %v; want %g", tc.p, got, err, tc.want)
		}
	}
	if got, err := percentile([]float64{3, 1, 2, 5, 4, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, 50); err != nil || got != 11 {
		t.Errorf("p50 of 1..21 = %g, %v; want 11 (rank ceil(10.5))", got, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		p  float64
		n  int
		ok bool
	}{
		{90, 99, false}, {90, 100, true},
		{99, 999, false}, {99, 1000, true},
		{50, 19, false}, {50, 20, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		_, err := percentile(xs, tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", tc.p, tc.n, err, tc.ok)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples: no error")
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", parent: 1, start: 20 * ms, end: 30 * ms}, // grandchild
		{name: "c", parent: 0, start: 50 * ms, end: 60 * ms},
		{name: "c", parent: 0, start: 55 * ms, end: 70 * ms},  // overlaps the first c
		{name: "d", parent: 0, start: 90 * ms, end: 120 * ms}, // runs past the root's end
	}
	want := []time.Duration{100*ms - 30*ms - 20*ms - 10*ms, 20 * ms, 10 * ms, 10 * ms, 15 * ms, 30 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	rows, remainder := attribute(spans, 0)
	if remainder != 40*ms {
		t.Errorf("remainder = %v, want 40ms", remainder)
	}
	byName := map[string]time.Duration{}
	for _, r := range rows {
		byName[r.name] = r.self
	}
	if byName["c"] != 25*ms || byName["a"] != 20*ms || rows[0].name != "d" {
		t.Errorf("attribution rows = %+v", rows)
	}
}

func TestTracerNestsSpansAndSumsToWall(t *testing.T) {
	tr := newTracer()
	err := tr.do("root", func() error {
		if err := tr.do("outer", func() error {
			return tr.do("inner", func() error { time.Sleep(2 * time.Millisecond); return nil })
		}); err != nil {
			return err
		}
		return tr.do("core.session", func() error { time.Sleep(time.Millisecond); return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := []int{tr.spans[0].parent, tr.spans[1].parent, tr.spans[2].parent, tr.spans[3].parent}; !reflect.DeepEqual(got, []int{-1, 0, 1, 0}) {
		t.Fatalf("parents = %v", got)
	}
	rows, remainder := attribute(tr.spans, 0)
	sum := remainder
	for _, r := range rows {
		sum += r.self
	}
	if wall := tr.spans[0].end - tr.spans[0].start; sum != wall {
		t.Errorf("self times + remainder = %v, wall %v", sum, wall)
	}
	var nilTracer *tracer
	ran := false
	if err := nilTracer.do("x", func() error { ran = true; return nil }); err != nil || !ran {
		t.Error("a nil tracer must run the call untraced")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	progs := func(seed int64) []string {
		ps, err := codegenPrograms(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, p := range ps {
			out = append(out, p.src)
		}
		return out
	}
	if !reflect.DeepEqual(progs(7), progs(7)) {
		t.Error("codegen: same seed, different programs")
	}
	if reflect.DeepEqual(progs(7), progs(8)) {
		t.Error("codegen: the seed does not change the programs")
	}

	catalogInputs := func(seed int64) []catalogOp {
		b, err := setupCatalog(seed, "")
		if err != nil {
			t.Fatal(err)
		}
		var out []catalogOp
		for k := 0; k < 50; k++ {
			out = append(out, b.(*catalogBench).input(k))
		}
		return out
	}
	if !reflect.DeepEqual(catalogInputs(3), catalogInputs(3)) {
		t.Error("catalog: same seed, different inputs")
	}
	if reflect.DeepEqual(catalogInputs(3), catalogInputs(4)) {
		t.Error("catalog: the seed does not change the inputs")
	}

	searchInputs := func(seed int64) []string {
		b, err := setupSearch(seed, "")
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for j := 0; j < 3; j++ {
			for _, c := range b.(*searchBench).sweepList(j, 20) {
				out = append(out, c.Key())
			}
		}
		return out
	}
	if !reflect.DeepEqual(searchInputs(5), searchInputs(5)) {
		t.Error("search: same seed, different candidates")
	}
	if reflect.DeepEqual(searchInputs(5), searchInputs(6)) {
		t.Error("search: the seed does not change the candidates")
	}

	_, ref, err := catalogRefs()
	if err != nil {
		t.Fatal(err)
	}
	serveSeq := func(seed int64) []string {
		s := &serveBench{seed: seed}
		for pair := range ref {
			if !isHot(pair) {
				s.cold = append(s.cold, pair)
			}
		}
		sort.Strings(s.cold)
		return s.sequence(500)
	}
	if !reflect.DeepEqual(serveSeq(9), serveSeq(9)) {
		t.Error("serve: same seed, different request sequence")
	}
	if reflect.DeepEqual(serveSeq(9), serveSeq(10)) {
		t.Error("serve: the seed does not change the request sequence")
	}
}

func TestOpenLoopLatenessIsChargedToLatency(t *testing.T) {
	const interval = 10 * time.Millisecond
	stall := 60 * time.Millisecond
	samples, _ := openLoop(4, interval, 1, func(i int) sample {
		if i == 0 {
			time.Sleep(stall) // the only sender stalls on the first request
		}
		return sample{}
	})
	for i := 1; i < len(samples); i++ {
		s := samples[i]
		// Request i was due at i*interval but could not be sent before the
		// stall ended; both its lateness and its latency carry that wait.
		minLate := float64(stall-time.Duration(i)*interval) / 1e6
		if s.late < minLate-1 {
			t.Errorf("request %d: late %.2f ms, want >= %.2f ms", i, s.late, minLate)
		}
		if s.ms < s.late {
			t.Errorf("request %d: latency %.2f ms below its lateness %.2f ms", i, s.ms, s.late)
		}
	}
	if samples[0].ms < float64(stall)/1e6 {
		t.Errorf("the stalled request's latency %.2f ms is below the stall", samples[0].ms)
	}
}

func TestBestCPUKeepsTheMixAndTakesEachKindsFastestRepeat(t *testing.T) {
	samples := []sample{
		{kind: "a", cpuMS: 3}, {kind: "b", cpuMS: 10}, {kind: "a", cpuMS: 2},
		{kind: "b", cpuMS: 12}, {kind: "a", cpuMS: 5},
	}
	if got, want := bestCPU(samples), []float64{2, 10, 2, 10, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("bestCPU = %v, want %v", got, want)
	}
}

func TestCPUClockCountsWorkNotSleep(t *testing.T) {
	start := cpuNow()
	time.Sleep(50 * time.Millisecond)
	slept := cpuNow() - start
	start = cpuNow()
	for wall := time.Now(); time.Since(wall) < 50*time.Millisecond; {
	}
	busy := cpuNow() - start
	if slept > 20*time.Millisecond || busy < 30*time.Millisecond {
		t.Errorf("CPU time over a 50 ms sleep %v, over 50 ms of work %v", slept, busy)
	}
}

func TestHostProbeScalesToTheReference(t *testing.T) {
	p := hostProbe{best: 2 * probeRef, n: 1}
	if got := p.scale(); got != 0.5 {
		t.Errorf("scale on a host twice as slow = %g, want 0.5", got)
	}
	var fresh hostProbe
	if fresh.scale() <= 0 || fresh.n != 1 {
		t.Errorf("a probe that never ran must run the kernel once before scaling (n = %d)", fresh.n)
	}
}
