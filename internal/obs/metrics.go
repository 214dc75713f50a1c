package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// key identifies one time series: a metric name plus one label value (the
// registry is deliberately single-label; compose "i8086/index"-style labels
// when two dimensions are needed). Struct keys keep the hot lookup
// allocation-free.
type key struct {
	Metric string
	Label  string
}

// histogram accumulates observations into power-of-two buckets. All
// hot-path fields are manipulated atomically so concurrent observers never
// block each other once the series exists.
type histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64 // stores math.MaxUint64 until the first observation
	max     atomic.Uint64
	buckets [65]atomic.Uint64 // bucket i counts values with bit length i
}

func newHistogram() *histogram {
	h := &histogram{}
	h.min.Store(math.MaxUint64)
	return h
}

func (h *histogram) observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Registry is a concurrency-safe set of counters, gauges, and histograms.
// The zero-value-adjacent nil *Registry is a valid no-op receiver.
type Registry struct {
	mu       sync.RWMutex
	counters map[key]*atomic.Uint64
	gauges   map[key]*atomic.Int64
	hists    map[key]*histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[key]*atomic.Uint64{},
		gauges:   map[key]*atomic.Int64{},
		hists:    map[key]*histogram{},
	}
}

// counter returns the series' counter, creating it on first use.
func (r *Registry) counter(k key) *atomic.Uint64 {
	r.mu.RLock()
	c := r.counters[k]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[k]; c == nil {
		c = &atomic.Uint64{}
		r.counters[k] = c
	}
	return c
}

// Inc adds one to the counter metric/label.
func (r *Registry) Inc(metric, label string) { r.Add(metric, label, 1) }

// Add adds n to the counter metric/label.
func (r *Registry) Add(metric, label string, n uint64) {
	if r == nil {
		return
	}
	r.counter(key{metric, label}).Add(n)
}

// Counter reads the current value of a counter (0 if absent).
func (r *Registry) Counter(metric, label string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if c := r.counters[key{metric, label}]; c != nil {
		return c.Load()
	}
	return 0
}

// Total sums a counter metric across all labels.
func (r *Registry) Total(metric string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var t uint64
	for k, c := range r.counters {
		if k.Metric == metric {
			t += c.Load()
		}
	}
	return t
}

// Set stores a gauge value (latest write wins).
func (r *Registry) Set(metric, label string, v int64) {
	if r == nil {
		return
	}
	r.mu.RLock()
	g := r.gauges[key{metric, label}]
	r.mu.RUnlock()
	if g == nil {
		r.mu.Lock()
		if g = r.gauges[key{metric, label}]; g == nil {
			g = &atomic.Int64{}
			r.gauges[key{metric, label}] = g
		}
		r.mu.Unlock()
	}
	g.Store(v)
}

// SetMax raises a gauge to v if v exceeds its current value (gauges start
// at 0) — a high-watermark gauge. Concurrent writers race correctly via
// CAS: the final value is the maximum ever offered. The discovery sweep
// publishes its best per-candidate cycle savings this way, so a resumed run
// that replays journaled rows cannot lower the watermark.
func (r *Registry) SetMax(metric, label string, v int64) {
	if r == nil {
		return
	}
	r.mu.RLock()
	g := r.gauges[key{metric, label}]
	r.mu.RUnlock()
	if g == nil {
		r.mu.Lock()
		if g = r.gauges[key{metric, label}]; g == nil {
			g = &atomic.Int64{}
			r.gauges[key{metric, label}] = g
		}
		r.mu.Unlock()
	}
	for {
		cur := g.Load()
		if v <= cur {
			return
		}
		if g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Gauge reads a gauge value (0 if absent).
func (r *Registry) Gauge(metric, label string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if g := r.gauges[key{metric, label}]; g != nil {
		return g.Load()
	}
	return 0
}

// Observe records a value into the histogram metric/label. Durations are
// recorded in nanoseconds via ObserveSince; name those metrics with a .ns
// suffix so the report stays self-describing.
func (r *Registry) Observe(metric, label string, v uint64) {
	if r == nil {
		return
	}
	r.mu.RLock()
	h := r.hists[key{metric, label}]
	r.mu.RUnlock()
	if h == nil {
		r.mu.Lock()
		if h = r.hists[key{metric, label}]; h == nil {
			h = newHistogram()
			r.hists[key{metric, label}] = h
		}
		r.mu.Unlock()
	}
	h.observe(v)
}

// ObserveSince records the nanoseconds elapsed since start.
func (r *Registry) ObserveSince(metric, label string, start time.Time) {
	if r == nil {
		return
	}
	r.Observe(metric, label, uint64(time.Since(start)))
}

// Reset drops every series.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[key]*atomic.Uint64{}
	r.gauges = map[key]*atomic.Int64{}
	r.hists = map[key]*histogram{}
}

// CounterSnap is one counter series in a snapshot.
type CounterSnap struct {
	Metric string `json:"metric"`
	Label  string `json:"label,omitempty"`
	Value  uint64 `json:"value"`
}

// GaugeSnap is one gauge series in a snapshot.
type GaugeSnap struct {
	Metric string `json:"metric"`
	Label  string `json:"label,omitempty"`
	Value  int64  `json:"value"`
}

// Quantiles are nearest-rank quantile estimates interpolated inside the
// histogram's power-of-two buckets: each estimate is guaranteed to fall
// within the bucket that holds the true quantile of the observed values.
type Quantiles struct {
	P50  uint64 `json:"p50"`
	P90  uint64 `json:"p90"`
	P99  uint64 `json:"p99"`
	P999 uint64 `json:"p999"`
}

// HistSnap is one histogram series in a snapshot. Buckets maps the
// exclusive power-of-two upper bound ("<2^k") to its count, omitting empty
// buckets.
type HistSnap struct {
	Metric string  `json:"metric"`
	Label  string  `json:"label,omitempty"`
	Count  uint64  `json:"count"`
	Sum    uint64  `json:"sum"`
	Min    uint64  `json:"min"`
	Max    uint64  `json:"max"`
	Mean   float64 `json:"mean"`
	Quantiles
	Buckets []struct {
		Le    string `json:"le"`
		Count uint64 `json:"count"`
	} `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every series, sorted by metric then
// label, so its JSON encoding is deterministic.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// Snapshot captures every series in deterministic order.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   []CounterSnap{},
		Gauges:     []GaugeSnap{},
		Histograms: []HistSnap{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterSnap{k.Metric, k.Label, c.Load()})
	}
	for k, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnap{k.Metric, k.Label, g.Load()})
	}
	for k, h := range r.hists {
		hs := HistSnap{Metric: k.Metric, Label: k.Label,
			Count: h.count.Load(), Sum: h.sum.Load(), Min: h.min.Load(), Max: h.max.Load()}
		if hs.Count == 0 {
			hs.Min = 0
		} else {
			hs.Mean = float64(hs.Sum) / float64(hs.Count)
		}
		var counts [65]uint64
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				counts[i] = n
				hs.Buckets = append(hs.Buckets, struct {
					Le    string `json:"le"`
					Count uint64 `json:"count"`
				}{bucketName(i), n})
			}
		}
		hs.Quantiles = quantiles(&counts, hs.Count, hs.Min, hs.Max)
		snap.Histograms = append(snap.Histograms, hs)
	}
	sort.Slice(snap.Counters, func(i, j int) bool {
		return lessKey(snap.Counters[i].Metric, snap.Counters[i].Label, snap.Counters[j].Metric, snap.Counters[j].Label)
	})
	sort.Slice(snap.Gauges, func(i, j int) bool {
		return lessKey(snap.Gauges[i].Metric, snap.Gauges[i].Label, snap.Gauges[j].Metric, snap.Gauges[j].Label)
	})
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return lessKey(snap.Histograms[i].Metric, snap.Histograms[i].Label, snap.Histograms[j].Metric, snap.Histograms[j].Label)
	})
	return snap
}

// quantiles estimates p50/p90/p99/p999 from power-of-two bucket counts;
// the histogram's min/max clamp the extreme estimates.
func quantiles(counts *[65]uint64, total, min, max uint64) Quantiles {
	return Quantiles{
		P50:  quantile(counts, total, 0.50, min, max),
		P90:  quantile(counts, total, 0.90, min, max),
		P99:  quantile(counts, total, 0.99, min, max),
		P999: quantile(counts, total, 0.999, min, max),
	}
}

// quantile locates the nearest-rank q-quantile's bucket exactly (bucket
// counts are exact) and interpolates linearly inside it, so the estimate
// always falls within the bucket holding the true quantile — the bound the
// snapshot tests assert against a sorted reference.
func quantile(counts *[65]uint64, total uint64, q float64, min, max uint64) uint64 {
	if total == 0 {
		return 0
	}
	// Nearest rank: the smallest rank r (1-based) with r >= q*total.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < len(counts); i++ {
		n := counts[i]
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		lo, hi := bucketBounds(i)
		// Position of the target rank inside this bucket, interpolated
		// uniformly across the bucket's n values.
		pos := float64(rank-cum) / float64(n)
		est := uint64(float64(lo) + pos*float64(hi-lo))
		if est < lo {
			est = lo
		}
		if est > hi {
			est = hi
		}
		if est < min {
			est = min
		}
		if est > max {
			est = max
		}
		return est
	}
	return max
}

// bucketBounds returns the inclusive value range of bucket i (values whose
// bit length is i): bucket 0 holds only 0, bucket i>=1 holds
// [2^(i-1), 2^i - 1].
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = uint64(1) << uint(i-1)
	if i >= 64 {
		return lo, math.MaxUint64
	}
	return lo, uint64(1)<<uint(i) - 1
}

func lessKey(m1, l1, m2, l2 string) bool {
	if m1 != m2 {
		return m1 < m2
	}
	return l1 < l2
}

// bucketName renders bucket index i (values of bit length i) as its
// exclusive upper bound.
func bucketName(i int) string {
	if i >= 64 {
		return "inf"
	}
	v := uint64(1) << uint(i)
	return itoa(v)
}

// itoa avoids strconv for the handful of bucket labels.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// WriteJSON writes the snapshot as indented JSON with deterministic key
// and series ordering — the `extra stats` report format.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
