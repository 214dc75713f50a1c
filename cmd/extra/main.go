// Command extra is the front door to the EXTRA reproduction: it prints the
// paper's tables and figures, runs any of the analyses with full step
// traces, and lists the transformation library.
//
//	extra survey              Table 1: the exotic instruction survey
//	extra table2              Table 2: run all eleven analyses
//	extra fig N               figures 1-5 (transformation demo, descriptions)
//	extra analyze INS/OP      run one analysis and print the binding
//	extra trace INS/OP        run one analysis and print every step
//	extra synth               inverse mode: gadget-expand proven bindings
//	extra failures            the movc3/sassign and Eclipse failure cases
//	extra extensions          the beyond-paper analyses (extended mode)
//	extra xforms [category]   the 75-transformation library
//	extra desc NAME           print a corpus description (e.g. scasb, index)
//	extra stats               run the pipeline and print the metrics report
//
// The analysis-running commands (analyze, trace, table2, serve, discover,
// synth) accept a `--trace FILE` flag that writes every span and event of
// the run — per-transformation applications, equivalence checks,
// interpreter validations, code-generator emissions — as JSON lines to
// FILE, discover's and synth's stamped with the run's trace ID.
// `extra stats` accepts -cpuprofile and -memprofile for pprof output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"extra/internal/batch"
	"extra/internal/cache"
	"extra/internal/catalog"
	"extra/internal/codegen"
	"extra/internal/core"
	"extra/internal/discover"
	"extra/internal/gg"
	"extra/internal/hll"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/loadgen"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/proofs"
	"extra/internal/server"
	"extra/internal/synth"
	"extra/internal/transform"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "extra:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	args, traceFile, err := extractTrace(args)
	if err != nil {
		return err
	}
	args, timeout, err := extractTimeout(args)
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM cancel the command context: running analyses, searches,
	// batches, and the server observe it and wind down instead of being torn
	// mid-write. Once the context is down the handler is unregistered, so a
	// second signal kills the process the default way — an escape hatch when
	// a drain hangs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sigCtx := ctx
	go func() {
		<-sigCtx.Done()
		stop()
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if len(args) == 0 {
		usage(os.Stderr)
		return fmt.Errorf("no command given")
	}
	if traceFile != "" {
		switch args[0] {
		case "analyze", "trace", "table2", "serve", "discover", "synth":
		default:
			return fmt.Errorf("--trace is not supported by %q (only analyze, trace, table2, serve, discover, synth)", args[0])
		}
	}
	switch args[0] {
	case "survey":
		return survey()
	case "table2":
		return traced(ctx, "", traceFile, table2)
	case "fig":
		if len(args) < 2 {
			return fmt.Errorf("usage: extra fig N (1-5)")
		}
		return figure(ctx, args[1])
	case "analyze", "trace":
		if len(args) != 2 {
			return fmt.Errorf("usage: extra %s INSTRUCTION/OPERATOR (e.g. scasb/index)", args[0])
		}
		return traced(ctx, "", traceFile, func(ctx context.Context) error {
			return analyze(ctx, args[1], args[0] == "trace")
		})
	case "stats":
		return stats(ctx, args[1:])
	case "batch":
		return batchCmd(ctx, args[1:])
	case "discover":
		return discoverCmd(ctx, traceFile, args[1:])
	case "synth":
		return synthCmd(ctx, traceFile, args[1:])
	case "serve":
		return serveCmd(ctx, traceFile, args[1:])
	case "loadgen":
		return loadgenCmd(ctx, args[1:])
	case "binding":
		if len(args) < 2 {
			return fmt.Errorf("usage: extra binding INSTRUCTION/OPERATOR")
		}
		return bindingJSON(ctx, args[1])
	case "failures":
		return failures(ctx)
	case "extensions":
		return extensions(ctx)
	case "xforms":
		cat := ""
		if len(args) > 1 {
			cat = args[1]
		}
		return xforms(cat)
	case "desc":
		if len(args) < 2 {
			return fmt.Errorf("usage: extra desc NAME")
		}
		return desc(args[1])
	case "help", "-h", "--help":
		usage(os.Stdout)
		return nil
	}
	usage(os.Stderr)
	return fmt.Errorf("unknown command %q", args[0])
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `EXTRA — Exotic Instruction Transformational Analysis System
(reproduction of Morgan & Rowe, SIGPLAN '82)

  extra survey              Table 1: the exotic instruction survey
  extra table2              Table 2: run all eleven analyses
  extra fig N               figures 1-5
  extra analyze INS/OP      run one analysis, print the binding
  extra trace INS/OP        run one analysis, print every step
  extra failures            the paper's failure cases
  extra extensions          beyond-paper analyses (extended mode)
  extra xforms [category]   the transformation library
  extra binding INS/OP      emit the binding as the JSON compiler interface
  extra desc NAME           print a corpus description
  extra stats               run the whole pipeline, print the metrics report
                            (-cpuprofile FILE, -memprofile FILE for pprof;
                             -format prom emits Prometheus text exposition —
                             metric names mangle to [a-zA-Z0-9_:], so dots
                             become underscores: server.latency.ns ->
                             server_latency_ns; the single registry label is
                             exported as {label="..."})
  extra batch               run the full proof catalog concurrently
                            (-jobs N, -validate N, -each-timeout D,
                             -json FILE | -jsonl FILE atomic reports ("-" = stdout),
                             -jsonl journals crash-safe; -resume FILE skips
                             rows journaled by a killed run)
  extra discover            durable discovery sweep: every unproven
                            instruction x operator pair attacked with the
                            bounded auto-search, progress journaled to a
                            crash-safe WAL, report ranked by simulated
                            cycle savings
                            (-dir DIR holds queue.jsonl + report.json;
                             -resume continues a killed sweep
                             byte-identically; -jobs N, -depth D, -budget B,
                             -rungs R shape the search ladder; a candidate
                             whose run faults is quarantined as a poison
                             row; -each-timeout D; -machines CSV,
                             -operators CSV filter the cross-product)
  extra synth               inverse mode: expand each proven binding's
                            generated code through semantics-preserving
                            gadgets, verify every variant by differential
                            execution on the cycle-costed simulators, rank
                            by cycles and bytes; also sweeps codegen vs IR
                            reference, simulators vs corpus descriptions,
                            and binding-document integrity, exiting nonzero
                            on any divergence or unsound variant
                            (-bindings CSV of catalog keys, -gadgets CSV,
                             -seed N, -depth D stacked applications,
                             -max-variants N, -trials N, -top N,
                             -no-sweep skips the cross-layer sweeps;
                             -json FILE | -jsonl FILE atomic reports)
  extra serve               serve analyses over HTTP+JSON until SIGTERM
                            (-addr HOST:PORT, -queue N, -jobs N,
                             -drain-timeout D, -validate N,
                             -request-timeout D, -journal FILE,
                             -cache-entries N sizes the in-process result
                             cache (nothing persists across restarts);
                             -pprof mounts /debug/pprof/;
                             endpoints: /analyze /healthz /readyz /metrics;
                             /metrics is JSON by default, Prometheus text
                             exposition with ?format=prom or Accept: text/plain;
                             every request gets a trace ID — minted, or honored
                             from traceparent / X-Request-Id — echoed back as
                             X-Trace-Id and stamped on journal rows and spans)
  extra loadgen             drive the service with synthetic load, report
                            latency percentiles split warm/cold/coalesced
                            (-url URL or in-process server; -concurrency N,
                             -rate R open-loop req/s, -duration D, -requests N,
                             -warm-frac F, -pairs A/B,C/D, -seed N, -json FILE;
                             -slo-max-5xx N and -slo-warm-p99-lt-cold-p50
                             turn the run into a CI gate)

analyze, trace, table2, serve, discover and synth accept --trace FILE to
write a JSONL event trace; serve stamps each request's spans with its trace
ID, discover and synth every event with the run's, the ID on their rows.
Every command accepts --timeout DURATION (e.g. 30s, 2m): analyses, searches
and interpreter runs are abandoned with a timeout error past the deadline.
SIGINT/SIGTERM cancel the running command the same way; a second signal
kills the process immediately.`)
}

// extractTimeout pulls a `--timeout DURATION` flag (also -timeout DURATION,
// --timeout=DURATION) out of args, returning the remaining arguments and
// the parsed duration (0 when the flag is absent).
func extractTimeout(args []string) (rest []string, timeout time.Duration, err error) {
	parse := func(s string) error {
		d, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("bad --timeout value %q: %v", s, perr)
		}
		if d <= 0 {
			return fmt.Errorf("--timeout must be positive, got %q", s)
		}
		timeout = d
		return nil
	}
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "--timeout" || a == "-timeout":
			if i+1 >= len(args) {
				return nil, 0, fmt.Errorf("%s needs a duration argument", a)
			}
			if err := parse(args[i+1]); err != nil {
				return nil, 0, err
			}
			i++
		case strings.HasPrefix(a, "--timeout="):
			if err := parse(strings.TrimPrefix(a, "--timeout=")); err != nil {
				return nil, 0, err
			}
		case strings.HasPrefix(a, "-timeout="):
			if err := parse(strings.TrimPrefix(a, "-timeout=")); err != nil {
				return nil, 0, err
			}
		default:
			rest = append(rest, a)
		}
	}
	return rest, timeout, nil
}

// extractTrace pulls a `--trace FILE` flag (also -trace FILE, --trace=FILE)
// out of args, returning the remaining arguments and the file name ("" when
// the flag is absent).
func extractTrace(args []string) (rest []string, file string, err error) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "--trace" || a == "-trace":
			if i+1 >= len(args) {
				return nil, "", fmt.Errorf("%s needs a file argument", a)
			}
			file = args[i+1]
			i++
		case strings.HasPrefix(a, "--trace="):
			file = strings.TrimPrefix(a, "--trace=")
		case strings.HasPrefix(a, "-trace="):
			file = strings.TrimPrefix(a, "-trace=")
		default:
			rest = append(rest, a)
		}
	}
	return rest, file, nil
}

// traced runs fn under ctx carrying the command's tracer. A command that
// names its run (name non-empty) mints the run's trace ID and announces it
// on stderr as "NAME: run trace ID"; the tracer stamps it on every event
// and the report rows read it back from the context. A non-empty file
// receives every event as JSON lines. The tracer is also the process
// default for the duration, so code-generator and selector events, which
// have no context, land in the same stream with the same ID. A sink that
// hit write errors surfaces them after fn: the run's own result wins, but a
// lossy trace is reported, not swallowed.
func traced(ctx context.Context, name, file string, fn func(context.Context) error) (err error) {
	var id string
	if name != "" {
		id = obs.NewTraceID()
		fmt.Fprintf(os.Stderr, "%s: run trace %s\n", name, id)
	}
	var root *obs.Tracer
	if file != "" {
		f, ferr := os.Create(file)
		if ferr != nil {
			return ferr
		}
		sink := obs.NewJSONLSink(f)
		root = obs.NewTracer(sink)
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if serr := sink.Err(); serr != nil && err == nil {
				err = fmt.Errorf("trace file %s is incomplete (%d events dropped): %v", file, sink.Dropped(), serr)
			}
		}()
	}
	ctx = obs.WithTrace(ctx, root, id)
	prev := obs.SetTrace(obs.TracerFrom(ctx))
	defer obs.SetTrace(prev)
	return fn(ctx)
}

func survey() error {
	rows, total := catalog.Table1()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Machine\tNumber of Exotic Instructions")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\n", r.Machine, r.Count)
	}
	fmt.Fprintf(w, "Total\t%d\n", total)
	w.Flush()
	fmt.Println("\nPer-machine repertoires (extra desc <mnemonic> for analyzed ones):")
	for _, m := range catalog.Machines() {
		fmt.Printf("\n%s:\n", m)
		for _, in := range catalog.ByMachine(m) {
			fmt.Printf("  %-8s %-12s %s\n", in.Mnemonic, in.Class, in.Summary)
		}
	}
	return nil
}

func table2(ctx context.Context) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Machine\tInstruction\tLanguage\tOperation\tSteps\tElementary\tPaper")
	for _, a := range proofs.Table2() {
		_, b, err := a.RunCtx(ctx)
		if err != nil {
			return fmt.Errorf("%s/%s: %v", a.Instruction, a.Operator, err)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%d\t%d\n",
			a.Machine, a.Instruction, a.Language, a.Operation, b.Steps, b.Elementary, a.PaperSteps)
	}
	return w.Flush()
}

func figure(ctx context.Context, n string) error {
	switch n {
	case "1":
		fmt.Println("Figure 1: the reverse conditional transformation.")
		d := isps.MustParse(`demo.operation := begin
** S **
  exp<>, x: integer,
  demo.execute := begin
    input (exp);
    if exp
    then
      x <- 1;
    else
      x <- 2;
    end_if;
    output (x);
  end
end`)
		at, _ := isps.Find(d, func(nd isps.Node) bool { _, ok := nd.(*isps.IfStmt); return ok })
		tr, err := transform.Get("if.reverse")
		if err != nil {
			return err
		}
		out, err := tr.Apply(d, at, nil)
		if err != nil {
			return err
		}
		fmt.Println("before:")
		fmt.Println(isps.Format(d))
		fmt.Println("after:")
		fmt.Println(isps.Format(out.Desc))
		return nil
	case "2":
		fmt.Println("Figure 2: the Rigel index operator.")
		fmt.Println(isps.Format(langops.Get("index")))
		return nil
	case "3":
		fmt.Println("Figure 3: the Intel 8086 scasb instruction.")
		fmt.Println(isps.Format(machines.Get("scasb")))
		return nil
	case "4", "5":
		s, _, err := proofs.ScasbRigel().RunCtx(ctx)
		if err != nil {
			return err
		}
		snaps := s.Snapshots()
		if n == "4" {
			fmt.Println("Figure 4: simplified scasb (rf=1, rfz=0, df=0), produced mechanically.")
			fmt.Println(isps.Format(snaps["fig4"]))
		} else {
			fmt.Println("Figure 5: augmented scasb, produced mechanically.")
			fmt.Println(isps.Format(snaps["fig5"]))
		}
		return nil
	}
	return fmt.Errorf("no figure %q (want 1-5)", n)
}

func findAnalysis(pair string) (*proofs.Analysis, error) {
	parts := strings.Split(pair, "/")
	if len(parts) != 2 {
		return nil, fmt.Errorf("want INSTRUCTION/OPERATOR, e.g. scasb/index")
	}
	for _, a := range append(proofs.Table2(), proofs.Extensions()...) {
		if a.Instruction == parts[0] && a.Operator == parts[1] {
			return a, nil
		}
	}
	return nil, fmt.Errorf("no analysis %s (try: extra table2)", pair)
}

func analyze(ctx context.Context, pair string, trace bool) error {
	a, err := findAnalysis(pair)
	if err != nil {
		return err
	}
	s, b, err := a.RunCtx(ctx)
	if err != nil {
		return err
	}
	if trace {
		for _, st := range s.Steps {
			loc := st.At.String()
			if loc == "/" {
				loc = "-"
			}
			fmt.Printf("%3d  %-11s %-24s %-14s %s\n", st.Index, st.Side, st.Xform, loc, st.Note)
		}
		fmt.Println()
	}
	fmt.Print(b.Describe())
	n, err := core.ValidateBindingCtx(ctx, b, a.Gen, 300, 1)
	if err != nil {
		return fmt.Errorf("differential validation FAILED: %v", err)
	}
	fmt.Printf("differential validation: operator and customized instruction agree on %d random inputs\n", n)
	return nil
}

// bindingJSON runs an analysis and emits the compiler-interface document.
func bindingJSON(ctx context.Context, pair string) error {
	a, err := findAnalysis(pair)
	if err != nil {
		return err
	}
	_, b, err := a.RunCtx(ctx)
	if err != nil {
		return err
	}
	data, err := json.Marshal(b)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func failures(ctx context.Context) error {
	for _, f := range proofs.Failures() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("failures interrupted: %w", err)
		}
		fmt.Printf("== %s\n", f.Name)
		fmt.Printf("paper's diagnosis: %s\n", f.Paper)
		err := f.Attempt()
		fmt.Printf("reproduction: %v\n\n", err)
	}
	return nil
}

func extensions(ctx context.Context) error {
	for _, a := range proofs.Extensions() {
		fmt.Printf("== %s %s / %s %s (extended mode: %v)\n",
			a.Machine, a.Instruction, a.Language, a.Operation, a.Extended)
		_, b, err := a.RunCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Print(b.Describe())
		fmt.Println()
	}
	return nil
}

func xforms(cat string) error {
	cats := map[string]transform.Category{
		"local": transform.Local, "motion": transform.Motion, "loop": transform.Loop,
		"global": transform.Global, "routine": transform.Routine,
		"constraint": transform.Constraint, "augment": transform.Augment,
	}
	var list []*transform.Transformation
	if cat == "" {
		list = transform.All()
	} else {
		c, ok := cats[cat]
		if !ok {
			return fmt.Errorf("unknown category %q (want local/motion/loop/global/routine/constraint/augment)", cat)
		}
		list = transform.ByCategory(c)
	}
	for _, t := range list {
		fmt.Printf("%-26s [%s]\n    %s\n", t.Name, t.Category, t.Doc)
	}
	fmt.Printf("\n%d transformations\n", len(list))
	return nil
}

// statsSrc is the sample program `extra stats` compiles for every target,
// so the report also covers code-generator behavior: exotic emissions,
// decomposition fallbacks, chunk rewriting, constraint checks.
const statsSrc = `
data 100 "exotic instructions"
let i = index 100 19 'x'
print i
move 200 100 19
let e = compare 100 200 19
print e
clear 200 19
let s = add i 10
print s
`

// stats runs the whole pipeline — all eleven Table 2 analyses with
// differential validation, a sample compile on every code-generator
// target, and a table-driven selection — against a fresh metrics registry
// and prints the registry as deterministic JSON. -cpuprofile/-memprofile
// write pprof profiles of the run.
func stats(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile after the run to `file`")
	format := fs.String("format", "json", "report `format`: json, or prom for Prometheus text exposition (metric names are mangled to [a-zA-Z0-9_:], so dots become underscores: server.latency.ns -> server_latency_ns)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "json", "prom", "prometheus":
	default:
		return fmt.Errorf("-format must be json or prom, got %q", *format)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	prev := obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(prev)
	if err := statsRun(ctx); err != nil {
		return err
	}
	if err := statsReport(os.Stdout, *format); err != nil {
		return err
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// statsRun exercises every instrumented layer: the analyses populate the
// transform/session/equiv metrics, validation populates the interpreter and
// constraint metrics, the sample compiles populate the per-target codegen
// metrics, the table-driven selection populates the rule-firing counts, and
// the fault drill populates the robustness counters (auto-search retries
// and the code generator's corrupt-binding fallback).
func statsRun(ctx context.Context) error {
	for _, a := range proofs.Table2() {
		_, b, err := a.RunCtx(ctx)
		if err != nil {
			return fmt.Errorf("%s/%s: %v", a.Instruction, a.Operator, err)
		}
		if _, err := core.ValidateBindingCtx(ctx, b, a.Gen, 60, 1); err != nil {
			return fmt.Errorf("%s/%s validation: %v", a.Instruction, a.Operator, err)
		}
	}
	prog, err := hll.Parse(statsSrc)
	if err != nil {
		return err
	}
	for _, name := range codegen.Targets() {
		tg, err := codegen.For(name)
		if err != nil {
			return err
		}
		if _, err := tg.Compile(prog, codegen.AllOn()); err != nil {
			return fmt.Errorf("compile for %s: %v", name, err)
		}
	}
	g := gg.NewGen(gg.Rules8086(), gg.Pool8086(), map[string]uint64{"r": 0xF000})
	if err := g.GenStmt(gg.Assign("r", &gg.Tree{Op: "index", Kids: []*gg.Tree{
		gg.Const(200), gg.Const(19), gg.Const('x'),
	}})); err != nil {
		return err
	}
	if err := faultDrill(ctx); err != nil {
		return err
	}
	return discoveryDrill(ctx)
}

// drillOp / drillIns differ by surface rewrites only (a commuted comparison
// and <= written for =), so a deliberately starved first auto-search rung
// exhausts and the second rung completes — exercising the retry ladder.
const drillOp = `cpy.operation := begin
** S **
  n: integer, a: integer, b: integer,
  cpy.execute := begin
    input (n, a, b);
    repeat
      exit_when (n <= 0);
      Mb[b] <- Mb[a];
      a <- a + 1;
      b <- b + 1;
      n <- n - 1;
    end_repeat;
  end
end`

const drillIns = `blt.instruction := begin
** S **
  cnt: integer, src: integer, dst: integer,
  blt.execute := begin
    input (cnt, src, dst);
    repeat
      exit_when (0 = cnt);
      Mb[dst] <- Mb[src];
      src <- src + 1;
      dst <- dst + 1;
      cnt <- cnt - 1;
    end_repeat;
  end
end`

// faultDrill deterministically exercises the robustness machinery so the
// stats report always carries its counters: an auto-search retry ladder
// whose first rung is too small (auto.retry.attempt / auto.retry.exhausted
// / auto.retry.success), and a compile with a corrupt binding in place of
// the catalog's that must degrade to the decomposition loop
// (codegen.fallback).
func faultDrill(ctx context.Context) error {
	s, err := core.NewSession(isps.MustParse(drillOp), isps.MustParse(drillIns))
	if err != nil {
		return err
	}
	ladder := []core.AutoRung{{MaxDepth: 1, Budget: 50}, {MaxDepth: 3, Budget: 50000}}
	if _, err := s.AutoCompleteRetry(ctx, ladder); err != nil {
		return fmt.Errorf("fault drill: retry ladder: %v", err)
	}
	if _, err := s.Finish(); err != nil {
		return fmt.Errorf("fault drill: %v", err)
	}
	prog, err := hll.Parse(statsSrc)
	if err != nil {
		return err
	}
	// Structurally corrupt: no descriptions at all. The generator must
	// demote index to its decomposition loop, not abort.
	tg, err := codegen.ForBinding("i8086", "Intel 8086/scasb/index",
		&core.Binding{Instruction: "scasb", Operation: "index"})
	if err != nil {
		return err
	}
	if _, err := tg.Compile(prog, codegen.AllOn()); err != nil {
		return fmt.Errorf("fault drill: compile with corrupt binding: %v", err)
	}
	return nil
}

// discoveryDrill deterministically exercises the discovery sweep so the
// stats report always carries its counters: a two-candidate sweep in a
// throwaway directory — one auto-provable pair labeled as the movsb/sassign
// emitter site (discover.found plus a real discover.savings.cycles gauge
// from the simulator) and one whose instruction source does not parse
// (discover.poison, quarantined before it runs).
func discoveryDrill(ctx context.Context) error {
	dir, err := os.MkdirTemp("", "extra-discover-drill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cands := []discover.Candidate{
		{Machine: "Intel 8086", Instruction: "movsb", Language: "Pascal", Operation: "string move",
			Operator: "sassign", OpSrc: drillOp, InsSrc: drillIns},
		{Machine: "Drill", Instruction: "wedge", Language: "Drill", Operation: "always faults",
			Operator: "drillop", OpSrc: drillOp, InsSrc: "wedge.instruction := begin"},
	}
	s, err := discover.New(discover.Config{
		Candidates: cands,
		Dir:        filepath.Join(dir, "sweep"),
		Jobs:       2,
		Ladder:     []core.AutoRung{{MaxDepth: 3, Budget: 50000}},
	})
	if err != nil {
		return err
	}
	rep, err := s.Run(ctx)
	if err != nil {
		return fmt.Errorf("discovery drill: %v", err)
	}
	if rep.Outcomes["found"] != 1 || rep.Outcomes["poison"] != 1 {
		return fmt.Errorf("discovery drill: outcomes %v, want 1 found + 1 poison", rep.Outcomes)
	}
	return nil
}

// statsReport writes the metrics report: the registry snapshot sorted by
// (metric, label) so the output is stable across runs and diffable —
// indented JSON by default, Prometheus text exposition under -format prom
// (the same encoding the serve /metrics endpoint negotiates).
func statsReport(w io.Writer, format string) error {
	if format == "prom" || format == "prometheus" {
		return obs.Default().WriteProm(w)
	}
	return obs.Default().WriteJSON(w)
}

// batchCmd runs the full proof catalog (Table 2 plus the extensions)
// through the concurrent batch analyzer and reports per-analysis outcomes.
// A failing analysis is a report row, not a failed command — the command
// errors only when asked-for rows are missing or a row did not end "ok",
// after the whole report is out.
//
// Report files are crash-safe: `-jsonl FILE` journals every completed row
// (append + fsync) so a killed run loses at most the in-flight row, then
// compacts the journal into the canonical catalog-order report via an
// atomic rename when the run completes; `-json FILE` writes the whole
// document atomically. `-resume FILE` reloads a previous journal and skips
// its rows, so re-running after a kill finishes only what is missing.
func batchCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	jobs := fs.Int("jobs", 0, "worker count (0 = GOMAXPROCS)")
	validate := fs.Int("validate", 0, "differential-validation inputs per analysis (0 = off)")
	eachTimeout := fs.Duration("each-timeout", 0, "per-analysis timeout (0 = none)")
	asJSON := fs.String("json", "", "write one JSON document (rows + summary) atomically to `file` (\"-\" = stdout)")
	asJSONL := fs.String("jsonl", "", "journal rows to `file` as crash-safe JSONL (\"-\" = stdout, not crash-safe)")
	resume := fs.String("resume", "", "skip rows already journaled in `file` (a previous -jsonl run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkRanges(fs, map[string]int{"jobs": 0, "validate": 0}); err != nil {
		return err
	}
	if *asJSON != "" && *asJSONL != "" {
		return fmt.Errorf("-json and -jsonl are mutually exclusive")
	}
	// Every batch run gets a trace ID, stamped onto each row it executes —
	// the handle that joins a journal row or report row back to this run.
	return traced(ctx, "batch", "", func(ctx context.Context) error {
		catalog := append(proofs.Table2(), proofs.Extensions()...)
		runConfig := batch.RunConfig(*validate, catalog)
		r := &batch.Runner{Jobs: *jobs, Validate: *validate, EachTimeout: *eachTimeout}
		if *resume != "" {
			prior, err := batch.ResumeJournal[batch.Result](*resume, runConfig)
			if err != nil {
				return fmt.Errorf("-resume: %v", err)
			}
			r.Completed = batch.CompletedFrom(prior)
		}
		var journal *batch.Journal
		if *asJSONL != "" && *asJSONL != "-" {
			j, err := batch.OpenJournal(*asJSONL)
			if err != nil {
				return err
			}
			if err := j.WriteHeader(runConfig); err != nil {
				j.Close()
				return err
			}
			journal = j
		}
		r.OnResult = func(res batch.Result) {
			if journal == nil || res.Outcome == "canceled" {
				return // a canceled row must re-run on resume, not be skipped
			}
			if aerr := journal.Append(res); aerr != nil {
				fmt.Fprintf(os.Stderr, "extra: journal %s: %v\n", *asJSONL, aerr)
			}
		}
		results := r.Run(ctx, catalog)
		switch {
		case *asJSON == "-":
			if err := batch.WriteJSON(os.Stdout, results); err != nil {
				return err
			}
		case *asJSON != "":
			if err := batch.WriteJSONFile(*asJSON, results); err != nil {
				return err
			}
		case *asJSONL == "-":
			if err := batch.WriteJSONL(os.Stdout, results); err != nil {
				return err
			}
		case journal != nil:
			// A completed run compacts the journal into the canonical
			// catalog-order report; a canceled one keeps the raw journal so
			// -resume can pick up from it.
			if ctx.Err() == nil {
				if err := journal.Rewrite(results); err != nil {
					return err
				}
			} else if err := journal.Close(); err != nil {
				return err
			}
			fmt.Printf("%d analyses: %v (journal: %s)\n", len(results), batch.Summary(results), *asJSONL)
		default:
			w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(w, "Machine\tInstruction\tLanguage\tOperation\tOutcome\tSteps\tElementary\tms")
			for i := range results {
				res := &results[i]
				fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\n",
					res.Machine, res.Instruction, res.Language, res.Operation,
					res.Outcome, res.Steps, res.Elementary, res.DurationMS)
			}
			if err := w.Flush(); err != nil {
				return err
			}
			fmt.Printf("\n%d analyses: %v\n", len(results), batch.Summary(results))
		}
		for i := range results {
			if results[i].Outcome != "ok" {
				return fmt.Errorf("%d of %d analyses did not complete ok (first: %s: %s)",
					len(results)-batch.Summary(results)["ok"], len(results), results[i].Pair(), results[i].Error)
			}
		}
		return nil
	})
}

// discoverCmd runs the durable discovery sweep: the unproven instruction x
// operator cross-product, a crash-safe work-list journal under -dir, and a
// report ranking whatever the bounded auto-search proves by simulated cycle
// savings. A killed sweep resumes with -resume; a candidate whose run
// faults is quarantined as a poison row instead of wedging the run.
func discoverCmd(ctx context.Context, traceFile string, args []string) error {
	fs := flag.NewFlagSet("discover", flag.ContinueOnError)
	dir := fs.String("dir", "", "durable sweep `directory`: queue.jsonl (WAL), report.json")
	jobs := fs.Int("jobs", 0, "candidate-level worker count (0 = GOMAXPROCS)")
	depth := fs.Int("depth", 3, "auto-search ladder: first rung's max depth")
	budget := fs.Int("budget", 1000, "auto-search ladder: first rung's state budget")
	rungs := fs.Int("rungs", 2, "auto-search ladder rungs (each doubles depth and quadruples budget)")
	eachTimeout := fs.Duration("each-timeout", 0, "per-candidate deadline (0 = none)")
	resume := fs.Bool("resume", false, "replay -dir's WAL and continue the interrupted sweep")
	machinesCSV := fs.String("machines", "", "restrict the sweep to these machine or instruction `names` (comma-separated)")
	operatorsCSV := fs.String("operators", "", "restrict the sweep to these language, operation, or operator `names` (comma-separated)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkRanges(fs, map[string]int{"jobs": 0, "depth": 1, "budget": 1, "rungs": 1}); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: extra discover -dir DIR [flags]")
	}
	if *dir == "" {
		return fmt.Errorf("extra discover: -dir is required (it holds the sweep's durable state)")
	}
	return traced(ctx, "discover", traceFile, func(ctx context.Context) error {
		s, err := discover.New(discover.Config{
			Machines:    splitCSV(*machinesCSV),
			Operators:   splitCSV(*operatorsCSV),
			Dir:         *dir,
			Jobs:        *jobs,
			Ladder:      core.AutoLadder(*depth, *budget, *rungs),
			EachTimeout: *eachTimeout,
			Resume:      *resume,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "discover: %d candidates under config %s (%d resumed)\n",
			s.Candidates(), s.ConfigDigest(), s.Resumed())
		rep, err := s.Run(ctx)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "discover: interrupted; every completed candidate is journaled — continue with: extra discover -dir %s -resume\n", *dir)
			}
			return err
		}
		m := obs.Default()
		fmt.Fprintf(os.Stderr, "discover: summary found=%d failed=%d poison=%d resumed=%d\n",
			m.Total("discover.found"), m.Total("discover.failed"), m.Total("discover.poison"),
			m.Total("discover.resumed"))
		rep.Render(os.Stdout)
		fmt.Fprintf(os.Stderr, "discover: report written to %s\n", filepath.Join(*dir, "report.json"))
		return nil
	})
}

func synthCmd(ctx context.Context, traceFile string, args []string) error {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "deterministic `seed` for gadget constants and trial data")
	depth := fs.Int("depth", 2, "maximum stacked gadget applications per variant")
	maxVariants := fs.Int("max-variants", 48, "variants enumerated per binding")
	trials := fs.Int("trials", 6, "differential executions per variant (trial 0 is the canonical ranking run)")
	top := fs.Int("top", 8, "ranked variants reported per binding")
	maxSteps := fs.Int("max-steps", 200_000, "simulated step bound per execution")
	bindingsCSV := fs.String("bindings", "", "restrict to these catalog binding `keys` (comma-separated; default all)")
	gadgetsCSV := fs.String("gadgets", "", "restrict to these `gadgets` (comma-separated; default all)")
	noSweep := fs.Bool("no-sweep", false, "skip the cross-layer divergence sweeps")
	jsonOut := fs.String("json", "", "write the report as JSON to `FILE` (atomic)")
	jsonlOut := fs.String("jsonl", "", "write the report as JSON lines to `FILE` (atomic)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: extra synth [flags]")
	}
	gadgets, err := synth.ParseGadgets(*gadgetsCSV)
	if err != nil {
		return err
	}
	return traced(ctx, "synth", traceFile, func(ctx context.Context) error {
		rep, err := synth.Run(ctx, synth.Config{
			Bindings:    splitCSV(*bindingsCSV),
			Gadgets:     gadgets,
			Seed:        *seed,
			Depth:       *depth,
			MaxVariants: *maxVariants,
			Trials:      *trials,
			Top:         *top,
			MaxSteps:    *maxSteps,
			Sweep:       !*noSweep,
		})
		if err != nil {
			return err
		}
		if *jsonOut != "" {
			if err := rep.WriteJSON(*jsonOut); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "synth: report written to %s\n", *jsonOut)
		}
		if *jsonlOut != "" {
			if err := rep.WriteJSONL(*jsonlOut); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "synth: report written to %s\n", *jsonlOut)
		}
		rep.Render(os.Stdout)
		m := obs.Default()
		fmt.Fprintf(os.Stderr, "synth: summary bindings=%d variants=%d verified=%d unsound=%d divergences=%d\n",
			m.Total("synth.binding"), m.Total("synth.variant"),
			m.Total("synth.variants.verified"), m.Total("synth.unsound"),
			uint64(len(rep.Divergences)))
		if rep.Failed() {
			return fmt.Errorf("synth: %d divergences, %d unsound variants",
				len(rep.Divergences), rep.Unsound)
		}
		return nil
	})
}

// checkRanges refuses out-of-range numeric flags before a command does any
// work or listens: each int flag named in floor must be at least its bound,
// and no duration flag may be negative.
func checkRanges(fs *flag.FlagSet, floor map[string]int) error {
	var err error
	fs.VisitAll(func(f *flag.Flag) {
		g, ok := f.Value.(flag.Getter)
		if err != nil || !ok {
			return
		}
		switch v := g.Get().(type) {
		case time.Duration:
			if v < 0 {
				err = fmt.Errorf("-%s must not be negative, got %v", f.Name, v)
			}
		case int:
			if lo, ok := floor[f.Name]; ok && v < lo {
				err = fmt.Errorf("-%s must be >= %d, got %d", f.Name, lo, v)
			}
		}
	})
	return err
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// serveCmd runs the analysis service until SIGINT/SIGTERM, then drains.
// `-journal FILE` appends every served analysis row to the same crash-safe
// JSONL journal the batch command uses; `--trace FILE` streams every
// request's span tree (ingress, admission, cache, engine — all stamped with
// the request's trace ID) as JSON lines.
func serveCmd(ctx context.Context, traceFile string, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8372", "listen `address` (host:port; port 0 picks a free port)")
	queue := fs.Int("queue", 16, "admission queue depth beyond the workers; excess requests get 429")
	jobs := fs.Int("jobs", 0, "concurrent analyses (0 = GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "grace for in-flight work after a shutdown signal")
	validate := fs.Int("validate", 0, "differential-validation inputs per served analysis (0 = off)")
	reqTimeout := fs.Duration("request-timeout", time.Minute, "default per-request analysis deadline")
	journalFile := fs.String("journal", "", "append served analysis rows to `file` as crash-safe JSONL")
	cacheEntries := fs.Int("cache-entries", 0, "in-memory result-cache entries (0 = 512)")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the serve mux")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkRanges(fs, map[string]int{"queue": 0, "jobs": 0, "validate": 0, "cache-entries": 0}); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve takes no positional arguments, got %q", fs.Args())
	}
	if err := validateListenAddr(*addr); err != nil {
		return fmt.Errorf("serve: -addr: %v", err)
	}
	return traced(ctx, "", traceFile, func(ctx context.Context) error {
		// The serve path is always cache-fronted: warm hits answer before
		// admission control, so they never occupy a worker slot, and concurrent
		// identical requests coalesce into one engine run.
		ch, err := cache.New(cache.Config{Entries: *cacheEntries})
		if err != nil {
			return err
		}
		cfg := server.Config{
			Addr: *addr, Queue: *queue, Jobs: *jobs,
			DrainTimeout: *drainTimeout, RequestTimeout: *reqTimeout,
			Validate: *validate, Cache: ch,
			Catalog: append(proofs.Table2(), proofs.Extensions()...),
			Tracer:  obs.TracerFrom(ctx), EnablePprof: *pprofFlag,
		}
		var journal *batch.Journal
		if *journalFile != "" {
			// The header is batch's for the same -validate, so a serve
			// journal resumes a batch run under the same flags only.
			j, err := batch.OpenJournal(*journalFile)
			if err != nil {
				return err
			}
			if err := j.WriteHeader(batch.RunConfig(*validate, cfg.Catalog)); err != nil {
				j.Close()
				return err
			}
			journal = j
			cfg.OnResult = func(res batch.Result) {
				if aerr := j.Append(res); aerr != nil {
					fmt.Fprintf(os.Stderr, "extra: journal %s: %v\n", *journalFile, aerr)
				}
			}
		}
		srv := server.New(cfg)
		err = srv.Run(ctx, func(a net.Addr) {
			fmt.Printf("serving on %s\n", a)
		})
		// Flush sinks before reporting: the journal's last row must be durable
		// by the time the process exits.
		if journal != nil {
			if cerr := journal.Close(); err == nil {
				err = cerr
			}
		}
		m := obs.Default()
		fmt.Printf("drained: %d requests served, %d shed\n",
			m.Total("server.requests"), m.Total("server.shed"))
		return err
	})
}

// validateListenAddr rejects a malformed listen address before anything
// boots: a usage error now beats a supervisor retrying a bind that can
// never succeed.
func validateListenAddr(addr string) error {
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad listen address %q: %v", addr, err)
	}
	n, err := strconv.Atoi(port)
	if err != nil || n < 0 || n > 65535 {
		return fmt.Errorf("bad listen address %q: port must be 0-65535", addr)
	}
	return nil
}

// loadgenCmd drives a running analysis service (or one booted in-process on
// a free port) with synthetic load and reports the delivered latency
// distribution, bucketed warm/cold/coalesced by the X-Cache response
// header. Optional SLO flags turn the report into a gate: the command exits
// non-zero when the objective is violated, which is how ci.sh asserts the
// service's latency SLO on every build.
func loadgenCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	url := fs.String("url", "", "target service base `URL`; empty boots an in-process server on a free port")
	concurrency := fs.Int("concurrency", 8, "workers keeping requests in flight")
	rate := fs.Float64("rate", 0, "open-loop request rate per second (0 = closed loop)")
	duration := fs.Duration("duration", 5*time.Second, "measured-phase length")
	requests := fs.Int("requests", 0, "total request bound (0 = duration-bound)")
	warmFrac := fs.Float64("warm-frac", 0.8, "fraction of requests aimed at the pre-warmed hot pair (the first target)")
	pairsFlag := fs.String("pairs", "", "comma-separated INSTRUCTION/OPERATOR targets (empty = full proof catalog)")
	seed := fs.Int64("seed", 1, "target-selection RNG seed (deterministic request mix)")
	prewarm := fs.Bool("prewarm", true, "issue one unmeasured request for the hot pair before measuring")
	validate := fs.Int("validate", 0, "in-process server only: differential-validation inputs per served analysis (0 = off)")
	jsonOut := fs.String("json", "", "write the report JSON to `file` (\"-\" = stdout)")
	sloMax5xx := fs.Int("slo-max-5xx", -1, "gate: fail when more than `N` 5xx responses (-1 = no gate)")
	sloWarmCold := fs.Bool("slo-warm-p99-lt-cold-p50", false, "gate: fail unless warm-hit p99 < cold-miss p50")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("loadgen takes no positional arguments, got %q", fs.Args())
	}
	var pairs []string
	if *pairsFlag != "" {
		pairs = strings.Split(*pairsFlag, ",")
		for _, p := range pairs {
			if _, err := findAnalysis(p); err != nil {
				return fmt.Errorf("-pairs: %v", err)
			}
		}
	} else {
		for _, a := range append(proofs.Table2(), proofs.Extensions()...) {
			pairs = append(pairs, a.Instruction+"/"+a.Operator)
		}
	}
	base := *url
	if base == "" {
		// In-process target: a real server on a loopback ephemeral port, so
		// the measured path includes the full HTTP stack.
		ch, err := cache.New(cache.Config{})
		if err != nil {
			return err
		}
		srv := server.New(server.Config{Addr: "127.0.0.1:0", Cache: ch, Validate: *validate})
		srvCtx, stop := context.WithCancel(ctx)
		addrc := make(chan net.Addr, 1)
		errc := make(chan error, 1)
		go func() { errc <- srv.Run(srvCtx, func(a net.Addr) { addrc <- a }) }()
		select {
		case a := <-addrc:
			base = "http://" + a.String()
		case err := <-errc:
			stop()
			return fmt.Errorf("in-process server: %w", err)
		}
		defer func() {
			stop()
			<-errc
		}()
	}
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL: base, Pairs: pairs,
		WarmFrac: *warmFrac, Concurrency: *concurrency, Rate: *rate,
		Duration: *duration, Requests: *requests,
		Prewarm: *prewarm, Seed: *seed,
	})
	if err != nil {
		return err
	}
	gated := *sloMax5xx >= 0 || *sloWarmCold
	var verdict loadgen.SLOResult
	if gated {
		slo := loadgen.SLO{WarmP99LTColdP50: *sloWarmCold}
		if *sloMax5xx > 0 {
			slo.Max5xx = *sloMax5xx
		}
		verdict = rep.Evaluate(slo)
	}
	if err := writeLoadgenReport(rep, *jsonOut); err != nil {
		return err
	}
	if gated && !verdict.Pass {
		return fmt.Errorf("SLO violated: %s", strings.Join(verdict.Violations, "; "))
	}
	return nil
}

// writeLoadgenReport emits the report: JSON to -json's target and a human
// summary to stderr so it never corrupts a piped report.
func writeLoadgenReport(rep *loadgen.Report, jsonOut string) error {
	if jsonOut != "" {
		w := io.Writer(os.Stdout)
		if jsonOut != "-" {
			f, err := os.Create(jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: %s loop, %d requests in %v (%.1f req/s): %d warm, %d cold, %d coalesced, %d shed, %d 5xx, %d errors\n",
		rep.Mode, rep.Requests, time.Duration(rep.ElapsedNS).Round(time.Millisecond),
		rep.ThroughputRPS, rep.Warm.Count, rep.Cold.Count, rep.Coalesced.Count,
		rep.Shed, rep.Server5xx, rep.Errors)
	if rep.Warm.Count > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: warm p50 %v p99 %v; cold p50 %v p99 %v\n",
			time.Duration(rep.Warm.P50NS), time.Duration(rep.Warm.P99NS),
			time.Duration(rep.Cold.P50NS), time.Duration(rep.Cold.P99NS))
	}
	return nil
}

func desc(name string) error {
	if d := machines.Get(name); d != nil {
		fmt.Print(isps.Format(d))
		return nil
	}
	if d := langops.Get(name); d != nil {
		fmt.Print(isps.Format(d))
		return nil
	}
	return fmt.Errorf("no description %q in the corpora", name)
}
