// Command perfbench is the repository's benchmark: four seeded workloads
// that drive EXTRA's public entry points from outside, time every operation,
// check every output against a reference, and print the end-to-end metrics
// (untraced) or the per-layer metrics (a separate serial traced pass).
// Every measured op runs alone, so the process CPU time around it is its
// own; the declared times are those CPU times, scaled to a reference host
// by a fixed kernel run alongside them (see hostProbe).
//
//	bash perfbench/run.sh --workload catalog --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every workload runs its ops from
// one goroutine; the serve workload's open loop uses two client connections.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runParts is how many child processes a measured run is split into, one
// after the other, each measuring an equal share of the run (at least one
// whole pass over the workload's inputs); setupReps is how many times each
// of them sets its workload up. The same work runs up to a third slower in
// one process than in the next, and stays so for the process's life, so a
// run takes the median over several.
const (
	runParts  = 8
	setupReps = 3
)

// workload is one seeded input set and the way to drive it.
type workload struct {
	name string
	// setup builds the inputs and their reference outputs from the seed and
	// starts whatever the workload needs (a server, a temp directory).
	setup func(seed int64, tmp string) (bench, error)
}

// bench is a set-up workload.
type bench interface {
	// run drives the workload until d has passed; last is set in the last
	// part of a run (see runParts).
	run(d time.Duration, last bool) (*outcome, error)
	// entry sends the fixed traced slice through the workload's real entry
	// point, untraced and serially, recording any layer metrics the entry
	// point itself exposes into m.
	entry(m map[string]float64) error
	// layers sends the traced slice through the per-layer public calls,
	// recording spans on t (nil: untraced) and deterministic counts on c.
	layers(t *tracer, c counts) error
	close() error
}

// outcome is what an untraced run measured.
type outcome struct {
	samples  []sample           // the ops run one at a time
	elapsed  time.Duration      // the wall time of samples
	wall     bool               // samples' wall times are the workload's latencies
	open     []sample           // serve: the open-loop requests, checked and timed from their due times
	extra    map[string]float64 // workload-specific end-to-end metrics
	failures []string           // the first few failed-op messages
}

// sample is one timed operation.
type sample struct {
	kind   string  // which input: every op of a kind does the same work
	ms     float64 // wall time
	cpuMS  float64 // process CPU time; 0 in the open loop, where requests overlap
	failed string  // why the output check failed; "" when it passed
	class  string  // serve: the X-Cache outcome
	late   float64 // serve's open loop: how late the request was sent
}

func (o *outcome) fail(msg string) {
	if len(o.failures) < 5 {
		o.failures = append(o.failures, msg)
	}
}

var workloads = []workload{
	{"catalog", setupCatalog},
	{"search", setupSearch},
	{"codegen", setupCodegen},
	{"serve", setupServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics in table order. The first fourteen
// apply to every workload; the rest to one workload each.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_ref_s", "1/s"}, {"op_ref_p50_ms", "ms"}, {"op_ref_p90_ms", "ms"},
	{"ops_per_cpu_s", "1/s"}, {"op_cpu_p50_ms", "ms"}, {"op_cpu_p90_ms", "ms"}, {"host_probe_ms", "ms"},
	{"ops_per_s", "1/s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"},
	{"fail_ratio", "ratio"}, {"peak_rss_mb", "MB"}, {"rss_p90_mb", "MB"},
	{"warm_p99_ms", "ms"}, {"cold_p50_ms", "ms"}, {"goodput_rps", "1/s"},
	{"target_cycles", "cycles"}, {"target_bytes", "bytes"}, {"bindings_found", "count"},
}

// declared is the subset of endToEnd that BENCHMARK.json declares: the
// metrics every workload reports and that are never 0. Time is declared as
// process CPU time scaled to the reference host (setup_s too; see
// hostProbe): the wall times are printed, but on a shared host they move
// by half between runs of the same code, and the unscaled CPU times by a
// third. Memory is declared as rss_p90_mb: the peak is set by a single
// sub-50 ms transient and moves by a third between runs of the same
// workload, the p90 of the samples does not.
var declared = []string{"setup_s", "ops_per_ref_s", "op_ref_p50_ms", "op_ref_p90_ms", "rss_p90_mb"}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "catalog, search, codegen, serve, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: run the serial traced pass and print per-layer metrics")
	partMS := fs.Int("part-ms", 0, "measure one part of a run for this many milliseconds (internal)")
	lastPart := fs.Bool("last-part", false, "the part is a run's last (internal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
	}
	if *name == "all" && *trace == 0 {
		return runAll(args, stdout)
	}
	w, ok := findWorkload(*name)
	if *name == "all" {
		w, ok = workloads[0], true // the traced pass covers every workload anyway
	}
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var res *result
	switch {
	case *partMS > 0:
		return measurePart(w, *seed, time.Duration(*partMS)*time.Millisecond, *lastPart, tmp, stdout)
	case *trace == 1:
		res, err = tracedRun(w, *seed, tmp, stdout)
	default:
		res, err = untracedRun(w, *seed, time.Duration(*seconds)*time.Second, stdout)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// part is what one child process of a measured run reports.
type part struct {
	Row       map[string]float64  `json:"row"`   // the workload's own metrics, the probe
	Setup     []float64           `json:"setup"` // each set-up's time, s
	RSS       []float64           `json:"rss"`   // resident set samples, MiB
	PeakRSS   float64             `json:"peak_rss"`
	Kinds     map[string]kindTime `json:"kinds"`
	Wall      []float64           `json:"wall,omitempty"` // each op's wall time, ms, when it is a latency
	Elapsed   float64             `json:"elapsed"`        // the wall time of the ops, s
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
}

// kindTime is the fastest CPU time one part measured for an input kind
// (see bestCPU), as measured and scaled to the reference host, and how many
// ops of that kind it ran.
type kindTime struct {
	CPU float64 `json:"cpu"` // ms
	Ref float64 `json:"ref"` // ms
	N   int     `json:"n"`
}

// untracedRun measures the workload for d in runParts child processes and
// reports the end-to-end metrics. Each input kind's CPU time is the median
// over the parts of each part's fastest repeat; the op percentiles and
// rates are taken over all parts' ops at those times, the wall percentiles
// over all parts' ops as measured, setup_s is the median of every set-up
// of every part, rss_p90_mb is taken over every part's samples and
// peak_rss_mb is the largest part's, and any other metric is the median
// over the parts that report it.
func untracedRun(w workload, seed int64, d time.Duration, stdout io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var (
		setups, wall, rss []float64
		peakRSS           float64
		elapsed           float64
		attempted, failed int
		kinds             = map[string][]kindTime{}
		values            = map[string][]float64{}
	)
	for i := 0; i < runParts; i++ {
		args := []string{"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--part-ms", strconv.FormatInt((d / runParts).Milliseconds(), 10)}
		if i == runParts-1 {
			args = append(args, "--last-part")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s part %d: %w", w.name, i, err)
		}
		var p part
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
			return nil, fmt.Errorf("%s part %d: %w", w.name, i, err)
		}
		for name, v := range p.Row {
			values[name] = append(values[name], v)
		}
		for k, t := range p.Kinds {
			kinds[k] = append(kinds[k], t)
		}
		setups = append(setups, p.Setup...)
		wall = append(wall, p.Wall...)
		rss = append(rss, p.RSS...)
		peakRSS = max(peakRSS, p.PeakRSS)
		elapsed += p.Elapsed
		attempted += p.Attempted
		failed += p.Failed
	}
	row := map[string]float64{}
	for name, vs := range values {
		row[name] = median(vs)
	}
	var cpu, ref []float64
	var cpuSum, refSum float64
	for _, ts := range kinds {
		var cs, rs []float64
		n := 0
		for _, t := range ts {
			cs, rs, n = append(cs, t.CPU), append(rs, t.Ref), n+t.N
		}
		c, r := median(cs), median(rs)
		for j := 0; j < n; j++ {
			cpu, ref = append(cpu, c), append(ref, r)
		}
		cpuSum, refSum = cpuSum+c*float64(n), refSum+r*float64(n)
	}
	row["ops_per_cpu_s"] = float64(len(cpu)) / (cpuSum / 1e3)
	row["ops_per_ref_s"] = float64(len(ref)) / (refSum / 1e3)
	want := []pct{{"op_cpu_p50_ms", cpu, 50}, {"op_cpu_p90_ms", cpu, 90}, {"op_ref_p50_ms", ref, 50}, {"op_ref_p90_ms", ref, 90},
		{"rss_p90_mb", rss, 90}}
	if len(wall) > 0 {
		row["ops_per_s"] = float64(len(wall)) / elapsed
		want = append(want, pct{"op_p50_ms", wall, 50}, pct{"op_p90_ms", wall, 90})
	}
	if err := percentiles(row, want...); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	row["setup_s"] = median(setups)
	row["peak_rss_mb"] = peakRSS
	row["fail_ratio"] = float64(failed) / float64(attempted)
	printRow(stdout, w.name, seed, attempted, row)
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, name := range declared {
		res.Metrics[name] = metricValue{row[name], unitOf(name)}
	}
	return res, nil
}

// measurePart is one child process of a measured run: it sets the workload
// up setupReps times, drives it for d, and prints its part as one JSON
// line. It runs on one processor: with a second one idle, the garbage
// collector's idle mark workers would spend as much of it as a mark phase
// lasts, and the process CPU time of the same work would move with that.
func measurePart(w workload, seed int64, d time.Duration, last bool, tmp string, stdout io.Writer) error {
	runtime.GOMAXPROCS(1)
	b, setups, err := setupTimes(w, seed, tmp)
	if err != nil {
		return err
	}
	defer b.close()
	runtime.GC() // every run starts timing from a collected heap
	stop, rss := make(chan struct{}), make(chan []float64, 1)
	go sampleRSS(stop, rss)
	o, err := b.run(d, last)
	close(stop)
	rssSamples := <-rss
	if err != nil {
		return err
	}
	if len(o.samples) == 0 {
		return fmt.Errorf("%s: no operation finished", w.name)
	}
	p := part{Row: o.extra, Setup: setups, RSS: rssSamples, PeakRSS: peakRSSMB(),
		Kinds: map[string]kindTime{}, Elapsed: o.elapsed.Seconds(), Attempted: len(o.samples) + len(o.open)}
	scale := host.scale()
	for i, c := range bestCPU(o.samples) {
		s := o.samples[i]
		p.Kinds[s.kind] = kindTime{CPU: c, Ref: c * scale, N: p.Kinds[s.kind].N + 1}
		if o.wall {
			p.Wall = append(p.Wall, s.ms)
		}
	}
	for _, s := range append(o.samples, o.open...) {
		if s.failed != "" {
			p.Failed++
		}
	}
	p.Row["host_probe_ms"] = ms(host.best)
	for _, msg := range o.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed check:", msg)
	}
	return json.NewEncoder(stdout).Encode(&p)
}

// setupTimes sets the workload up setupReps times, keeping the last
// instance, and returns each set-up's process CPU time in seconds, scaled
// to the reference host by the probe kernel's fastest run next to them
// (see hostProbe). Each set-up starts from a collected heap and runs with
// the collector paused, so the time is the set-up's own work and not where
// the previous set-up's garbage happened to trigger a collection; the
// kernel runs on the collected heap, so the set-up's garbage is not in it.
func setupTimes(w workload, seed int64, tmp string) (bench, []float64, error) {
	var (
		times []float64
		b     bench
		best  time.Duration
	)
	for i := 0; i < setupReps; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC() // every set-up starts from a collected heap
		if d := host.run(); i == 0 || d < best {
			best = d
		}
		gc := debug.SetGCPercent(-1)
		start := cpuNow()
		nb, err := w.setup(seed, tmp)
		end := cpuNow()
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		times = append(times, (end - start).Seconds())
		b = nb
	}
	for i := range times {
		times[i] *= float64(probeRef) / float64(best)
	}
	return b, times, nil
}

// pct names the p-th percentile of xs.
type pct struct {
	name string
	xs   []float64
	p    float64
}

// percentiles stores each named percentile in row.
func percentiles(row map[string]float64, ps ...pct) error {
	for _, p := range ps {
		v, err := percentile(p.xs, p.p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		row[p.name] = v
	}
	return nil
}

// bestCPU returns, for each sample, the least CPU time any op of its kind
// took in the run. The host's other guests share its caches and memory
// bus, so the CPU time of the same work rises and falls with what they do
// (by a factor of two within seconds, on a memory-bound loop); the fastest
// repeat is the op's cost with the least of that in it. The CPU-time
// metrics are computed over these, so they keep the run's op mix and each
// op's real cost.
func bestCPU(samples []sample) []float64 {
	best := map[string]float64{}
	for _, s := range samples {
		if b, ok := best[s.kind]; !ok || s.cpuMS < b {
			best[s.kind] = s.cpuMS
		}
	}
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = best[s.kind]
	}
	return out
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// printRow prints one workload's row of the end-to-end table: every
// metric by name and unit, "n/a" where the metric does not apply, then a
// machine-readable "row" line that `--workload all` collects.
func printRow(w io.Writer, name string, seed int64, ops int, row map[string]float64) {
	fmt.Fprintf(w, "workload %s  seed %d  ops %d\n", name, seed, ops)
	for _, m := range endToEnd {
		v, ok := row[m.name]
		val := "n/a"
		if ok {
			val = fmt.Sprintf("%.6g", v)
		}
		fmt.Fprintf(w, "  %-15s %-7s %s\n", m.name, m.unit, val)
	}
	line, _ := json.Marshal(map[string]any{"workload": name, "metrics": row})
	fmt.Fprintf(w, "row %s\n", line)
}

// runAll runs every workload in its own child process (so peak_rss_mb is
// per workload) and prints one table with a row per workload.
func runAll(args []string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rows := map[string]map[string]float64{}
	correct, attempted, failed := true, 0, 0
	for _, w := range workloads {
		childArgs := replaceFlag(args, "workload", w.name)
		cmd := exec.Command(self, childArgs...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: result line: %w", w.name, err)
		}
		correct = correct && res.Correct
		attempted += res.Attempted
		failed += res.Failed
		for _, l := range lines {
			if rest, ok := strings.CutPrefix(l, "row "); ok {
				var r struct {
					Metrics map[string]float64 `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(rest), &r); err != nil {
					return fmt.Errorf("%s: row line: %w", w.name, err)
				}
				rows[w.name] = r.Metrics
			}
		}
	}
	fmt.Fprintf(stdout, "%-10s", "workload")
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, " %15s", m.name+"("+m.unit+")")
	}
	fmt.Fprintln(stdout)
	for _, w := range workloads {
		fmt.Fprintf(stdout, "%-10s", w.name)
		for _, m := range endToEnd {
			if v, ok := rows[w.name][m.name]; ok {
				fmt.Fprintf(stdout, " %15.6g", v)
			} else {
				fmt.Fprintf(stdout, " %15s", "n/a")
			}
		}
		fmt.Fprintln(stdout)
	}
	return json.NewEncoder(stdout).Encode(&result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}})
}

// replaceFlag returns args with the named flag's value replaced (or added).
func replaceFlag(args []string, name, value string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == name {
			i++
			continue
		}
		if strings.HasPrefix(a, name+"=") {
			continue
		}
		out = append(out, args[i])
	}
	return append(out, "--"+name, value)
}

// rssEvery is the resident-set sampling period of a measured run.
const rssEvery = 5 * time.Millisecond

// sampleRSS samples the resident set size (MiB) every rssEvery until stop
// is closed, then sends the samples on out.
func sampleRSS(stop <-chan struct{}, out chan<- []float64) {
	var samples []float64
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- samples
			return
		case <-tick.C:
			if mb, err := rssMB(); err == nil {
				samples = append(samples, mb)
			}
		}
	}
}

// rssMB is the process's current resident set size in MiB.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
