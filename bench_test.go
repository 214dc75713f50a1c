// Benchmarks, one per table and figure of the paper (see DESIGN.md's
// experiment index). Each benchmark regenerates its artifact — the survey
// counts, an analysis run to common form, a generated listing, a cycle
// measurement — and reports the paper-relevant quantity as a custom metric
// where one exists (steps, cycles, speedup).
//
//	go test -bench=. -benchmem
package extra

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"extra/internal/batch"
	"extra/internal/cache"
	"extra/internal/catalog"
	"extra/internal/codegen"
	"extra/internal/core"
	"extra/internal/fault"
	"extra/internal/hll"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/proofs"
	"extra/internal/server"
	"extra/internal/transform"
)

// BenchmarkTable1Survey regenerates Table 1 from the instruction catalog.
func BenchmarkTable1Survey(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		rows, t := catalog.Table1()
		if len(rows) != 6 {
			b.Fatal("bad survey")
		}
		total = t
	}
	b.ReportMetric(float64(total), "instructions")
}

// benchAnalysis runs one Table 2 analysis to common form per iteration and
// reports its step count, plus the per-iteration transformation application
// and precondition-failure counts drawn from the metrics registry (failures
// come from the tactic and auto-search probes; a rising preconds/op is an
// early sign a script started leaning on search).
func benchAnalysis(b *testing.B, a *proofs.Analysis) {
	b.Helper()
	reg := obs.Default()
	applied0 := reg.Total("transform.applied")
	precond0 := reg.Total("transform.precond")
	var steps int
	for i := 0; i < b.N; i++ {
		_, bind, err := a.Run()
		if err != nil {
			b.Fatal(err)
		}
		steps = bind.Steps
	}
	b.ReportMetric(float64(steps), "steps")
	b.ReportMetric(float64(a.PaperSteps), "paper-steps")
	b.ReportMetric(float64(reg.Total("transform.applied")-applied0)/float64(b.N), "applies/op")
	b.ReportMetric(float64(reg.Total("transform.precond")-precond0)/float64(b.N), "preconds/op")
}

// BenchmarkTable2 has one sub-benchmark per analysis in the paper's
// Table 2.
func BenchmarkTable2(b *testing.B) {
	for _, a := range proofs.Table2() {
		a := a
		b.Run(a.Instruction+"_"+a.Operator, func(b *testing.B) { benchAnalysis(b, a) })
	}
}

// autoBenchOp / autoBenchIns differ by surface rewrites only (a commuted
// comparison and a <= written for =), so the auto-search must find a
// three-step completion with no guidance. The pair mirrors the stats fault
// drill: the first two ladder rungs exhaust and the third succeeds, which
// makes the benchmark exercise the search's dominant cost (probing and
// deduplicating candidate states) rather than the happy path alone.
const autoBenchOp = `cpy.operation := begin
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

const autoBenchIns = `blt.instruction := begin
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

// BenchmarkAutoSearchLadder measures the bounded auto-search climbing the
// default retry ladder to rung 3 (depth 4): the auto-heavy hot path the
// paper's section 7 "little or no user intervention" mode pays for. ci.sh
// gates its allocations.
func BenchmarkAutoSearchLadder(b *testing.B) {
	op := isps.MustParse(autoBenchOp)
	ins := isps.MustParse(autoBenchIns)
	ladder := core.AutoLadder(1, 3200, 3)
	var steps int
	for i := 0; i < b.N; i++ {
		s, err := core.NewSession(op, ins)
		if err != nil {
			b.Fatal(err)
		}
		n, err := s.AutoCompleteRetry(nil, ladder)
		if err != nil {
			b.Fatal(err)
		}
		steps = n
	}
	b.ReportMetric(float64(steps), "steps")
}

// BenchmarkAutoSearchExhaust measures one discovery candidate whose search
// runs out of budget on every rung: the 8086 movsb instruction against
// Rigel index under the sweep's default ladder. Every enumerated candidate
// ends this way at stock budgets, so this is the sweep's per-candidate
// cost. The search charges each candidate to the budget as it probes it,
// so a change that expands states the budget never admits shows up here as
// allocations (ci.sh gates them).
func BenchmarkAutoSearchExhaust(b *testing.B) {
	op, ins := langops.Get("index"), machines.Get("movsb")
	ladder := core.AutoLadder(3, 1000, 2)
	for i := 0; i < b.N; i++ {
		_, err := core.AutoAnalyze(context.Background(), core.AutoSpec{Op: op, Ins: ins, Ladder: ladder})
		var be *fault.BudgetError
		if !errors.As(err, &be) {
			b.Fatalf("want the ladder's budget exhaustion, got %v", err)
		}
	}
}

// BenchmarkBatchAnalyzer measures the concurrent batch analyzer over the
// paper's eleven Table 2 analyses, serial vs a four-worker pool. On a
// multi-core host the jobs=4 form shows the pool's wall-clock win; on one
// core the two agree, which is itself the no-overhead check.
func BenchmarkBatchAnalyzer(b *testing.B) {
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			r := &batch.Runner{Jobs: jobs, Metrics: obs.NewRegistry()}
			for i := 0; i < b.N; i++ {
				results := r.Run(context.Background(), proofs.Table2())
				for j := range results {
					if results[j].Outcome != "ok" {
						b.Fatalf("%s: %s", results[j].Pair(), results[j].Error)
					}
				}
			}
		})
	}
}

// BenchmarkCacheWarmVsCold measures the analysis service's content-addressed
// cache: the same /analyze request served cold (a full engine run each
// iteration, no cache configured) versus warm (a memory hit served before
// admission). ci.sh requires cold ns/op to be at least 5x warm's; over 15
// runs on a 2-vCPU host the ratio was 117-293x.
func BenchmarkCacheWarmVsCold(b *testing.B) {
	const target = "/analyze?pair=scasb/index"
	serve := func(b *testing.B, s *server.Server) {
		b.Helper()
		h := s.Handler()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		if w.Code != 200 {
			b.Fatalf("prime request: status %d: %s", w.Code, w.Body)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
			if w.Code != 200 {
				b.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		serve(b, server.New(server.Config{Metrics: obs.NewRegistry()}))
	})
	b.Run("warm", func(b *testing.B) {
		m := obs.NewRegistry()
		c, err := cache.New(cache.Config{Metrics: m})
		if err != nil {
			b.Fatal(err)
		}
		serve(b, server.New(server.Config{Metrics: m, Cache: c}))
		if m.Counter("cache.hit", "mem") < uint64(b.N) {
			b.Fatalf("warm loop was not served from the cache (%d hits, %d iterations)",
				m.Counter("cache.hit", "mem"), b.N)
		}
	})
}

// BenchmarkTable2Validation measures the differential validation of the
// flagship binding (300 random machine states per iteration).
func BenchmarkTable2Validation(b *testing.B) {
	a := proofs.ScasbRigel()
	_, bind, err := a.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ValidateBinding(bind, a.Gen, 300, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogValidation validates all 17 catalog bindings (Table 2
// and the extensions) on 100 inputs each, seeded by the binding's index.
// Unlike scasb/index alone, the catalog writes memory and checks a
// predicate (movc3/sassign's no-overlap condition), so a per-run
// allocation on the store or predicate path shows here; ci.sh gates its
// allocs/op.
func BenchmarkCatalogValidation(b *testing.B) {
	all := append(proofs.Table2(), proofs.Extensions()...)
	binds := make([]*core.Binding, len(all))
	for i, a := range all {
		_, bind, err := a.Run()
		if err != nil {
			b.Fatal(err)
		}
		binds[i] = bind
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, a := range all {
			if _, err := core.ValidateBinding(binds[j], a.Gen, 100, int64(j)); err != nil {
				b.Fatalf("%s/%s: %v", a.Instruction, a.Operator, err)
			}
		}
	}
}

// BenchmarkFig1ReverseConditional applies the paper's figure 1
// transformation.
func BenchmarkFig1ReverseConditional(b *testing.B) {
	d := isps.MustParse(`demo.operation := begin
** S **
  exp<>, x: integer,
  demo.execute := begin
    input (exp);
    if exp then x <- 1; else x <- 2; end_if;
    output (x);
  end
end`)
	at, _ := isps.Find(d, func(n isps.Node) bool { _, ok := n.(*isps.IfStmt); return ok })
	tr, err := transform.Get("if.reverse")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Apply(d, at, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2ParseIndex parses and prints figure 2 (the Rigel index
// description).
func BenchmarkFig2ParseIndex(b *testing.B) {
	src := func() string {
		d, _, err := proofs.ScasbRigel().Run()
		if err != nil {
			b.Fatal(err)
		}
		return isps.Format(d.OrigOp)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := isps.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if isps.Format(d) == "" {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig4Simplify runs the simplification prefix of the scasb
// analysis (figure 3 to figure 4: fix rf, rfz, df and fold).
func BenchmarkFig4Simplify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := newScasbSession()
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range []struct {
			op  string
			val int
		}{{"rf", 1}, {"rfz", 0}, {"df", 0}} {
			if err := s.FixOperand(core.InsSide, f.op, f.val); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5Augment runs simplification plus the three augments (figure
// 4 to figure 5).
func BenchmarkFig5Augment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := newScasbSession()
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range []struct {
			op  string
			val int
		}{{"rf", 1}, {"rfz", 0}, {"df", 0}} {
			if err := s.FixOperand(core.InsSide, f.op, f.val); err != nil {
				b.Fatal(err)
			}
		}
		steps := []struct {
			name string
			args transform.Args
		}{
			{"augment.prologue", transform.Args{"stmt": "zf <- 0;"}},
			{"augment.prologue", transform.Args{"stmt": "temp <- di;", "decl": "temp", "width": "16"}},
			{"augment.epilogue", transform.Args{"stmts": "if zf then output (di - temp); else output (0); end_if;"}},
		}
		for _, st := range steps {
			if err := s.Apply(core.InsSide, st.name, nil, st.args); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func newScasbSession() (*core.Session, error) {
	a := proofs.ScasbRigel()
	_ = a
	op := mustDesc("index")
	ins := mustDesc("scasb")
	return core.NewSession(op, ins)
}

func mustDesc(name string) *isps.Description {
	if d := descFromCorpora(name); d != nil {
		return d
	}
	panic("no description " + name)
}

// BenchmarkListingScasbCodegen generates the section 4.1 code listing (the
// index operator on the 8086) and runs it, reporting the cycle count.
func BenchmarkListingScasbCodegen(b *testing.B) {
	prog := hll.MustParse("data 100 \"hello world\"\nlet i = index 100 11 'o'\nprint i")
	tg, err := codegen.For("i8086")
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		compiled, err := tg.Compile(prog, codegen.AllOn())
		if err != nil {
			b.Fatal(err)
		}
		m, err := codegen.Run(tg, compiled, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Out) != 1 || m.Out[0] != 5 {
			b.Fatalf("wrong answer %v", m.Out)
		}
		cycles = m.Cycles
	}
	b.ReportMetric(float64(cycles), "target-cycles")
}

// BenchmarkFailureCases reproduces the paper's two analysis failures per
// iteration.
func BenchmarkFailureCases(b *testing.B) {
	fails := proofs.Failures()
	for i := 0; i < b.N; i++ {
		for _, f := range fails {
			if err := f.Attempt(); err == nil {
				b.Fatal("failure case succeeded")
			}
		}
	}
}

// BenchmarkExtensions runs the beyond-paper analyses (predicate-constraint
// movc3 and the B4800 list search).
func BenchmarkExtensions(b *testing.B) {
	for _, a := range proofs.Extensions() {
		a := a
		b.Run(a.Instruction+"_"+a.Operator, func(b *testing.B) { benchAnalysis(b, a) })
	}
}

// motivation sweeps: exotic versus decomposed target cycles (the paper's
// section 1 claim). Reported as target-machine cycles, with the wall time
// being the simulator's cost.
func benchMotivation(b *testing.B, target, src string, exotic bool) {
	prog := hll.MustParse(src)
	tg, err := codegen.For(target)
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := tg.Compile(prog, codegen.Options{Exotic: exotic, Rewriting: true})
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := codegen.Run(tg, compiled, 1<<23)
		if err != nil {
			b.Fatal(err)
		}
		cycles = m.Cycles
	}
	b.ReportMetric(float64(cycles), "target-cycles")
	b.ReportMetric(float64(len(compiled.Code)), "target-instrs")
}

// BenchmarkMotivationExoticVsPrimitive measures a 256-byte move and search
// both ways on every target.
func BenchmarkMotivationExoticVsPrimitive(b *testing.B) {
	data := strings.Repeat("a", 256)
	move := fmt.Sprintf("data 1024 %q\nmove 8192 1024 256", data)
	search := fmt.Sprintf("data 1024 %q\nlet i = index 1024 256 'z'\nprint i", data)
	for _, target := range codegen.Targets() {
		target := target
		b.Run(target+"/move/exotic", func(b *testing.B) { benchMotivation(b, target, move, true) })
		b.Run(target+"/move/loop", func(b *testing.B) { benchMotivation(b, target, move, false) })
		b.Run(target+"/search/exotic", func(b *testing.B) { benchMotivation(b, target, search, true) })
		b.Run(target+"/search/loop", func(b *testing.B) { benchMotivation(b, target, search, false) })
	}
}

// Ablations (DESIGN.md section 5): each mechanism of the code generator
// disabled in turn, measured on a workload that exercises it.
func BenchmarkAblationRewriting(b *testing.B) {
	// A 600-byte move on the 370: with rewriting it is three chunked mvcs,
	// without it a 600-iteration byte loop.
	data := strings.Repeat("x", 600)
	src := fmt.Sprintf("data 1024 %q\nmove 8192 1024 600", data)
	b.Run("with", func(b *testing.B) {
		prog := hll.MustParse(src)
		tg, _ := codegen.For("ibm370")
		compiled, err := tg.Compile(prog, codegen.Options{Exotic: true, Rewriting: true})
		if err != nil {
			b.Fatal(err)
		}
		var cycles uint64
		for i := 0; i < b.N; i++ {
			m, err := codegen.Run(tg, compiled, 1<<23)
			if err != nil {
				b.Fatal(err)
			}
			cycles = m.Cycles
		}
		b.ReportMetric(float64(cycles), "target-cycles")
	})
	b.Run("without", func(b *testing.B) {
		prog := hll.MustParse(src)
		tg, _ := codegen.For("ibm370")
		compiled, err := tg.Compile(prog, codegen.Options{Exotic: true})
		if err != nil {
			b.Fatal(err)
		}
		var cycles uint64
		for i := 0; i < b.N; i++ {
			m, err := codegen.Run(tg, compiled, 1<<23)
			if err != nil {
				b.Fatal(err)
			}
			cycles = m.Cycles
		}
		b.ReportMetric(float64(cycles), "target-cycles")
	})
}

func BenchmarkAblationRegPref(b *testing.B) {
	// Cascaded string operations benefit from keeping dedicated registers.
	src := `data 64 "abcdefgh"
move 200 64 8
move 300 64 8
clear 400 8
clear 500 8
clear 600 8
let e = compare 200 300 8
print e`
	for _, on := range []bool{true, false} {
		name := "with"
		if !on {
			name = "without"
		}
		b.Run(name, func(b *testing.B) {
			prog := hll.MustParse(src)
			tg, _ := codegen.For("i8086")
			compiled, err := tg.Compile(prog, codegen.Options{Exotic: true, Rewriting: true, RegPref: on})
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m, err := codegen.Run(tg, compiled, 1<<23)
				if err != nil {
					b.Fatal(err)
				}
				cycles = m.Cycles
			}
			b.ReportMetric(float64(cycles), "target-cycles")
			b.ReportMetric(float64(len(compiled.Code)), "target-instrs")
		})
	}
}

// BenchmarkInterpreter measures the ISPS interpreter on the scasb
// description (the analysis engine's ground truth).
func BenchmarkInterpreter(b *testing.B) {
	benchInterpScasb(b)
}

// BenchmarkTableDrivenSelector measures the Graham-Glanville-style selector
// (package gg) generating and running the section 6 interface demo.
func BenchmarkTableDrivenSelector(b *testing.B) {
	benchGG(b)
}

// BenchmarkTokenizerWorkload measures the realistic cascaded-exotic
// workload (field splitting) on every target, exotic versus decomposed.
func BenchmarkTokenizerWorkload(b *testing.B) {
	src := `
data 100 "alpha,beta,gamma,delta,"
let p = 100
let remaining = 23
let outp = 600
label top
ifz remaining done
let i = index p remaining ','
ifz i done
let fieldlen = sub i 1
move outp p fieldlen
let outp = add outp fieldlen
let p = add p i
let remaining = sub remaining i
goto top
label done
let len = sub outp 600
print len
`
	for _, target := range codegen.Targets() {
		target := target
		b.Run(target+"/exotic", func(b *testing.B) { benchMotivation(b, target, src, true) })
		b.Run(target+"/loop", func(b *testing.B) { benchMotivation(b, target, src, false) })
	}
}
