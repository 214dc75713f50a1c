package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"time"
)

// span is one timed layer call: its name, its parent (the enclosing span,
// -1 for a root), and its start and end as offsets from the trace origin.
// allocs is the malloc delta around the call, for the layers in allocLayers.
type span struct {
	name       string
	parent     int
	start, end time.Duration
	allocs     uint64
}

// allocLayers are the layers whose calls also record a malloc delta: the
// per-layer allocation split of the cold analysis path, plus validation and
// compilation.
var allocLayers = map[string]bool{
	"isps.parse": true, "isps.intern": true, "core.session": true, "transform.apply": true,
	"equiv.match": true, "interp.validate": true, "codegen.compile": true,
}

// tracer keeps spans in memory until the run ends. It is serial: one open
// span at a time per nesting level, no concurrent callers.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do runs fn inside a span called name, nested under the innermost open
// span. A nil tracer runs fn untraced. The malloc counters are read outside
// the timed interval, so their cost lands in the parent's self time (the
// tracing overhead), not in the layer's.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent})
	t.open = append(t.open, idx)
	var ms runtime.MemStats
	countAllocs := allocLayers[name]
	if countAllocs {
		runtime.ReadMemStats(&ms)
	}
	mallocs := ms.Mallocs
	start := time.Since(t.origin)
	err := fn()
	end := time.Since(t.origin)
	if countAllocs {
		runtime.ReadMemStats(&ms)
		t.spans[idx].allocs = ms.Mallocs - mallocs
	}
	t.spans[idx].start, t.spans[idx].end = start, end
	t.open = t.open[:len(t.open)-1]
	return err
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := time.Duration(0)
		cur, curEnd := s.start, s.start
		for _, k := range kids {
			ks, ke := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if ke <= ks {
				continue
			}
			if ks > curEnd {
				covered += curEnd - cur
				cur, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		covered += curEnd - cur
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerShare is one row of an attribution summary.
type layerShare struct {
	name  string
	self  time.Duration
	calls int
}

// attribute groups self time by span name, excluding the root span, whose
// self time is returned separately as the unattributed remainder. The rows
// are sorted by self time, largest first; rows plus remainder sum to the
// root's duration.
func attribute(spans []span, root int) (rows []layerShare, remainder time.Duration) {
	self := selfTimes(spans)
	byName := map[string]*layerShare{}
	for i, s := range spans {
		if i == root {
			continue
		}
		r := byName[s.name]
		if r == nil {
			r = &layerShare{name: s.name}
			byName[s.name] = r
		}
		r.self += self[i]
		r.calls++
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	return rows, self[root]
}

// counts are the deterministic per-pass counts a traced pass records; two
// passes over the same inputs must produce identical counts.
type counts map[string]float64

func (c counts) add(name string, v float64) { c[name] += v }

// perLayer lists the per-layer metrics of the traced pass, in report order.
var perLayer = []metricDef{
	{"isps.parse.ns", "ns"}, {"isps.intern.ns", "ns"}, {"core.session.ns", "ns"},
	{"transform.apply.calls", "count"}, {"transform.apply.ns_per_step", "ns"}, {"transform.precond_ratio", "ratio"},
	{"core.auto.states", "count"}, {"core.auto.ns_per_state", "ns"}, {"core.auto.probe_hit_ratio", "ratio"}, {"core.auto.rungs", "count"},
	{"equiv.match.calls", "count"}, {"equiv.match.ns", "ns"},
	{"interp.validate.inputs", "count"}, {"interp.validate.ns_per_input", "ns"},
	{"hll.parse.ns", "ns"}, {"codegen.compile.ns", "ns"}, {"codegen.instrs", "count"}, {"codegen.fallbacks", "count"},
	{"sim.i8086.ns_per_kcycle", "ns"}, {"sim.vax.ns_per_kcycle", "ns"}, {"sim.ibm370.ns_per_kcycle", "ns"},
	{"sim.i8086.kcycles", "count"}, {"sim.vax.kcycles", "count"}, {"sim.ibm370.kcycles", "count"},
	{"cache.hit_ratio", "ratio"}, {"cache.evictions", "count"},
	{"server.queue_wait.p99_ns", "ns"}, {"server.service.p50_ns", "ns"},
	{"loadgen.late_p99_ms", "ms"},
	{"batch.self_ms", "ms"}, {"discover.self_ms_per_candidate", "ms"},
	{"isps.parse.allocs", "count"}, {"isps.intern.allocs", "count"}, {"core.session.allocs", "count"}, {"transform.apply.allocs", "count"},
	{"equiv.match.allocs", "count"}, {"interp.validate.allocs", "count"}, {"codegen.compile.allocs", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// layerTotals accumulates spans across the traced passes of every workload.
type layerTotals struct {
	ns     map[string]float64
	calls  map[string]float64
	allocs map[string]float64
	counts counts
	traced time.Duration // summed traced walls
	plain  time.Duration // summed untraced walls of the same calls
}

func newLayerTotals() *layerTotals {
	return &layerTotals{ns: map[string]float64{}, calls: map[string]float64{}, allocs: map[string]float64{}, counts: counts{}}
}

// addSpans folds one traced pass (except its root) into the totals and
// returns the summed duration of its layer spans directly under the root.
func (lt *layerTotals) addSpans(spans []span, root int) time.Duration {
	var layered time.Duration
	for i, s := range spans {
		if i == root {
			continue
		}
		d := s.end - s.start
		lt.ns[s.name] += float64(d)
		lt.calls[s.name]++
		lt.allocs[s.name] += float64(s.allocs)
		if s.parent == root {
			layered += d
		}
	}
	return layered
}

// metrics derives the per-layer metrics from the totals.
func (lt *layerTotals) metrics(extra map[string]float64) map[string]float64 {
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	c := lt.counts
	m := map[string]float64{
		"transform.apply.calls":        c["transform.apply.calls"],
		"transform.apply.ns_per_step":  per(lt.ns["transform.apply"], c["transform.apply.calls"]),
		"transform.precond_ratio":      per(c["transform.precond"], c["transform.precond"]+c["transform.applied"]),
		"core.auto.states":             c["core.auto.states"],
		"core.auto.ns_per_state":       per(lt.ns["core.auto"], c["core.auto.states"]),
		"core.auto.probe_hit_ratio":    per(c["core.auto.states"], c["core.auto.states"]+c["core.auto.probe_misses"]),
		"core.auto.rungs":              c["core.auto.rungs"],
		"equiv.match.calls":            lt.calls["equiv.match"],
		"interp.validate.inputs":       c["interp.validate.inputs"],
		"interp.validate.ns_per_input": per(lt.ns["interp.validate"], c["interp.validate.inputs"]),
		"codegen.instrs":               c["codegen.instrs"],
		"codegen.fallbacks":            c["codegen.fallbacks"],
		"trace.overhead_ratio":         per(float64(lt.traced-lt.plain), float64(lt.plain)),
	}
	for _, name := range []string{"isps.parse", "isps.intern", "core.session", "equiv.match", "hll.parse", "codegen.compile"} {
		m[name+".ns"] = per(lt.ns[name], lt.calls[name])
	}
	for name := range allocLayers {
		m[name+".allocs"] = per(lt.allocs[name], lt.calls[name])
	}
	for _, t := range []string{"i8086", "vax", "ibm370"} {
		kc := c["sim."+t+".kcycles"]
		m["sim."+t+".kcycles"] = kc
		m["sim."+t+".ns_per_kcycle"] = per(lt.ns["sim."+t], kc)
	}
	for k, v := range extra {
		m[k] = v
	}
	return m
}

// tracedRun is the --trace 1 pass. For every workload (the named one
// first) it sets the workload up once and sends its fixed traced slice
// serially through the real entry point untraced, then through the
// per-layer calls untraced and traced, twice each. The walls give the entry
// point's own self time and the tracing overhead; every per-layer pass must
// repeat the first one's counts exactly. Every workload is traced so that
// each run reports every per-layer metric.
func tracedRun(named workload, seed int64, tmp string, stdout io.Writer) (*result, error) {
	order := []workload{named}
	for _, w := range workloads {
		if w.name != named.name {
			order = append(order, w)
		}
	}
	lt := newLayerTotals()
	extra := map[string]float64{}
	for _, w := range order {
		if err := tracePass(w, seed, tmp, lt, extra, stdout); err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
		}
	}
	m := lt.metrics(extra)
	fmt.Fprintf(stdout, "per-layer metrics (traced pass over every workload, seed %d)\n", seed)
	res := &result{
		Correct:   lt.counts["failed"] == 0,
		Attempted: int(lt.counts["ops"]),
		Failed:    int(lt.counts["failed"]),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		fmt.Fprintf(stdout, "  %-32s %-6s %.6g\n", d.name, d.unit, v)
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res, nil
}

// tracePass runs one workload's serial passes and prints its attribution
// summary.
func tracePass(w workload, seed int64, tmp string, lt *layerTotals, extra map[string]float64, stdout io.Writer) error {
	b, err := w.setup(seed, tmp)
	if err != nil {
		return err
	}
	defer b.close()
	start := time.Now()
	if err := b.entry(extra); err != nil {
		return err
	}
	entryWall := time.Since(start)

	// Two untraced and two traced passes, alternating; the faster of each
	// pair is kept, which takes a one-off stall out of the overhead figure.
	var (
		plain, traced time.Duration
		t             *tracer
		first         counts
	)
	for rep := 0; rep < 2; rep++ {
		c := counts{}
		start := time.Now()
		if err := b.layers(nil, c); err != nil {
			return err
		}
		if d := time.Since(start); rep == 0 || d < plain {
			plain = d
		}
		if err := sameCounts(&first, c); err != nil {
			return err
		}
		tt, c := newTracer(), counts{}
		if err := tt.do(w.name, func() error { return b.layers(tt, c) }); err != nil {
			return err
		}
		if d := tt.spans[0].end - tt.spans[0].start; rep == 0 || d < traced {
			t, traced = tt, d
		}
		if err := sameCounts(&first, c); err != nil {
			return err
		}
	}
	layered := lt.addSpans(t.spans, 0)
	for k, v := range first {
		lt.counts[k] += v
	}
	lt.traced += traced
	lt.plain += plain
	switch w.name {
	case "catalog":
		extra["batch.self_ms"] = float64(entryWall-layered) / 1e6
	case "search":
		extra["discover.self_ms_per_candidate"] = float64(entryWall-layered) / 1e6 / first["ops"]
	}

	rows, remainder := attribute(t.spans, 0)
	fmt.Fprintf(stdout, "traced %s: wall %.1f ms, untraced %.1f ms, tracing overhead %.1f%%, entry point %.1f ms, %g ops\n",
		w.name, ms(traced), ms(plain), 100*float64(traced-plain)/float64(plain), ms(entryWall), first["ops"])
	for _, r := range rows {
		fmt.Fprintf(stdout, "  %-18s %6.2f%%  self %9.2f ms  %6d calls\n", r.name, 100*float64(r.self)/float64(traced), ms(r.self), r.calls)
	}
	fmt.Fprintf(stdout, "  %-18s %6.2f%%  self %9.2f ms\n", "(unattributed)", 100*float64(remainder)/float64(traced), ms(remainder))
	return nil
}

// sameCounts records c as the first pass's counts, or checks that c
// repeats them exactly.
func sameCounts(first *counts, c counts) error {
	if *first == nil {
		*first = c
		return nil
	}
	if !reflect.DeepEqual(*first, c) {
		return fmt.Errorf("counts differ between two passes over the same inputs:\n  first %v\n  later %v", *first, c)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
