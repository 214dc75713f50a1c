package obs

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refQuantile is the nearest-rank quantile over the exact sorted samples —
// the ground truth the bucketed estimate is checked against.
func refQuantile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.9999999)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// bucketOf mirrors the histogram's bucket assignment (bits.Len).
func bucketOf(v uint64) int {
	n := 0
	for x := v; x > 0; x >>= 1 {
		n++
	}
	return n
}

// TestQuantileWithinTrueBucket: for adversarial distributions the
// power-of-two-bucket estimate cannot be exact, but it must always land
// inside the bucket that holds the true quantile — that is the histogram's
// precision contract, and it is what makes the p50/p99 series trustworthy
// to within a factor of two.
func TestQuantileWithinTrueBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := map[string][]uint64{
		// All mass on one value: every quantile must be in that value's bucket.
		"constant": func() []uint64 {
			s := make([]uint64, 1000)
			for i := range s {
				s[i] = 4096
			}
			return s
		}(),
		// Two spikes five orders of magnitude apart — the classic bimodal
		// warm/cold split that breaks mean-based summaries.
		"bimodal": func() []uint64 {
			var s []uint64
			for i := 0; i < 900; i++ {
				s = append(s, 100+uint64(rng.Intn(50)))
			}
			for i := 0; i < 100; i++ {
				s = append(s, 10_000_000+uint64(rng.Intn(1000)))
			}
			return s
		}(),
		// Heavy tail: a few enormous outliers must move p999 but not p50.
		"heavy-tail": func() []uint64 {
			var s []uint64
			for i := 0; i < 995; i++ {
				s = append(s, uint64(rng.Intn(1000))+1)
			}
			for i := 0; i < 5; i++ {
				s = append(s, uint64(1)<<60)
			}
			return s
		}(),
		// Zeros mixed in: bucket 0 is special (only the value 0 lands there).
		"zero-heavy": func() []uint64 {
			var s []uint64
			for i := 0; i < 600; i++ {
				s = append(s, 0)
			}
			for i := 0; i < 400; i++ {
				s = append(s, uint64(rng.Intn(1_000_000)))
			}
			return s
		}(),
		// Uniform over a wide range.
		"uniform": func() []uint64 {
			s := make([]uint64, 2000)
			for i := range s {
				s[i] = uint64(rng.Int63n(1 << 40))
			}
			return s
		}(),
	}
	for name, samples := range distributions {
		r := NewRegistry()
		for _, v := range samples {
			r.Observe("lat", "x", v)
		}
		snap := r.Snapshot()
		if len(snap.Histograms) != 1 {
			t.Fatalf("%s: %d histograms, want 1", name, len(snap.Histograms))
		}
		hs := snap.Histograms[0]
		sorted := append([]uint64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, tc := range []struct {
			q    float64
			got  uint64
			name string
		}{
			{0.50, hs.P50, "p50"},
			{0.90, hs.P90, "p90"},
			{0.99, hs.P99, "p99"},
			{0.999, hs.P999, "p999"},
		} {
			want := refQuantile(sorted, tc.q)
			if bucketOf(tc.got) != bucketOf(want) {
				t.Errorf("%s %s: estimate %d is in bucket %d, true quantile %d is in bucket %d",
					name, tc.name, tc.got, bucketOf(tc.got), want, bucketOf(want))
			}
			// The estimate must also stay inside the observed range.
			if tc.got < sorted[0] || tc.got > sorted[len(sorted)-1] {
				t.Errorf("%s %s: estimate %d outside observed range [%d, %d]",
					name, tc.name, tc.got, sorted[0], sorted[len(sorted)-1])
			}
		}
		// Monotonicity: p50 <= p90 <= p99 <= p999.
		if hs.P50 > hs.P90 || hs.P90 > hs.P99 || hs.P99 > hs.P999 {
			t.Errorf("%s: quantiles not monotone: p50=%d p90=%d p99=%d p999=%d",
				name, hs.P50, hs.P90, hs.P99, hs.P999)
		}
	}
}

// TestQuantileSingleObservation: one sample pins every quantile exactly.
func TestQuantileSingleObservation(t *testing.T) {
	r := NewRegistry()
	r.Observe("lat", "", 12345)
	hs := r.Snapshot().Histograms[0]
	for _, q := range []uint64{hs.P50, hs.P90, hs.P99, hs.P999} {
		if q != 12345 {
			t.Errorf("single-sample quantile = %d, want 12345", q)
		}
	}
}

// TestPromExposition pins the Prometheus text encoding: mangled names, TYPE
// headers, quantile series, and family contiguity (every line of a family
// adjacent — Prometheus parsers reject interleaved families).
func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Inc("server.requests", "/analyze")
	r.Inc("server.requests", "/batch")
	r.Set("server.up", "listening", 1)
	for i := 1; i <= 100; i++ {
		r.Observe("server.latency.ns", "/analyze", uint64(i)*1000)
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE server_requests counter",
		`server_requests{label="/analyze"} 1`,
		"# TYPE server_up gauge",
		"# TYPE server_latency_ns summary",
		`server_latency_ns{label="/analyze",quantile="0.5"}`,
		`server_latency_ns{label="/analyze",quantile="0.99"}`,
		`server_latency_ns_sum{label="/analyze"}`,
		`server_latency_ns_count{label="/analyze"} 100`,
		"# TYPE server_latency_ns_min gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Family contiguity: lines of one family (same name up to a label
	// brace) must be adjacent. Collect first/last line index per family.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	family := func(line string) string {
		if strings.HasPrefix(line, "# TYPE ") {
			return strings.Fields(line)[2]
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		return name
	}
	last := map[string]int{}
	for i, l := range lines {
		last[family(l)] = i
	}
	seenEnd := map[string]bool{}
	for i, l := range lines {
		f := family(l)
		if seenEnd[f] {
			t.Fatalf("family %s is not contiguous: line %d appears after the family ended", f, i)
		}
		if i == last[f] {
			seenEnd[f] = true
		}
	}
}

// TestPromName pins the mangling rules.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"server.latency.ns": "server_latency_ns",
		"cache.hit":         "cache_hit",
		"plain":             "plain",
		"with:colon":        "with:colon",
		"9starts.digit":     "_9starts_digit",
		"weird-chars!":      "weird_chars_",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}
