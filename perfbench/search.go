package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"extra/internal/core"
	"extra/internal/discover"
	"extra/internal/fault"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// searchLadder is the per-candidate auto-search ladder: depth 3 with 64
// states, then depth 6 with 256. It is a sixteenth of `extra discover`'s
// default budget, so that one sweep takes about two seconds and a run
// sweeps every candidate several times; each part of a run is whole
// sweeps, so every run has the same candidate mix.
var searchLadder = core.AutoLadder(3, 64, 2)

const (
	// searchStride keeps every searchStride-th enumerated candidate: the
	// same half of the cross-product for every seed, so the seed changes the
	// order of the candidates and not their mix.
	searchStride     = 2
	searchTraceReal  = 10 // real candidates in the traced slice
	searchValidation = 500
)

// The synthetic candidates differ from each other by surface rewrites only
// (a commuted comparison, <= written for =), so the auto-search must find
// the completion itself: they make the found path, the common-form match
// and the savings evaluation run in every sweep. The first is labeled as
// the 8086 movsb emitter site so its savings are simulated.
const synthOp = `cpy.operation := begin
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

const synthIns = `blt.instruction := begin
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

const synthInsCommuted = `bltc.instruction := begin
** S **
  cnt: integer, src: integer, dst: integer,
  bltc.execute := begin
    input (cnt, src, dst);
    repeat
      exit_when (0 >= cnt);
      Mb[dst] <- Mb[src];
      src <- src + 1;
      dst <- dst + 1;
      cnt <- cnt - 1;
    end_repeat;
  end
end`

var synthCandidates = []discover.Candidate{
	{Machine: "Intel 8086", Instruction: "movsb", Language: "Pascal", Operation: "string move",
		Operator: "sassign", OpSrc: synthOp, InsSrc: synthIns},
	{Machine: "Synthetic", Instruction: "bltc", Language: "Synthetic", Operation: "block copy",
		Operator: "cpy", OpSrc: synthOp, InsSrc: synthInsCommuted},
}

// synthGen draws inputs for the synthetic copy operator (n, a, b): up to 32
// bytes copied between two disjoint blocks.
func synthGen(rng *rand.Rand) ([]uint64, map[uint64]byte) {
	n := rng.Intn(33)
	mem := map[uint64]byte{}
	for i := 0; i < n; i++ {
		mem[uint64(100+i)] = byte(rng.Intn(256))
	}
	return []uint64{uint64(n), 100, 300}, mem
}

// searchBench is discovery sweeps over every enumerated unproven
// candidate plus the synthetic provable ones, in seeded order. One op is
// one candidate verdict.
type searchBench struct {
	real     []discover.Candidate // seeded permutation of the kept enumerated candidates
	seed     int64
	tmp      string
	reg      *obs.Registry
	gens     map[string]core.InputGen // operator name -> a catalog validation generator
	synth    map[string]*core.Binding // synthetic candidate key -> reference binding
	verdicts map[string]string        // traced slice: candidate key -> entry-pass outcome
}

// candidateTimes keeps the wall and process CPU time of every
// discover.candidate span, the sweep's own per-candidate timer, keyed by
// candidate. The report rows' duration_ms cannot serve: the sweep sets it
// in a deferred call after the row has been returned, so it always reads 0.
// The tracer emits synchronously and the sweep runs one candidate at a
// time, so the CPU time between a span's begin and end is the candidate's.
type candidateTimes struct {
	mu    sync.Mutex
	keys  map[int64]string
	cpu0  map[int64]time.Duration
	durMS map[string]float64
	cpuMS map[string]float64
}

func newCandidateTimes() *candidateTimes {
	return &candidateTimes{keys: map[int64]string{}, cpu0: map[int64]time.Duration{},
		durMS: map[string]float64{}, cpuMS: map[string]float64{}}
}

// Emit implements obs.Sink.
func (c *candidateTimes) Emit(e *obs.Event) {
	if e.Name != "discover.candidate" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Phase == "begin" {
		host.maybe()
	}
	now := cpuNow()
	switch e.Phase {
	case "begin":
		c.keys[e.Span], _ = e.Attrs["candidate"].(string)
		c.cpu0[e.Span] = now
	case "end":
		key := c.keys[e.Span]
		c.durMS[key] = float64(e.DurNS) / 1e6
		c.cpuMS[key] = ms(now - c.cpu0[e.Span])
	}
}

func setupSearch(seed int64, tmp string) (bench, error) {
	var kept []discover.Candidate
	for i, c := range discover.Enumerate(nil, nil) {
		if i%searchStride == 0 {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("no candidates enumerated")
	}
	real := make([]discover.Candidate, len(kept))
	for i, p := range rand.New(rand.NewSource(seed)).Perm(len(kept)) {
		real[i] = kept[p]
	}
	gens := map[string]core.InputGen{}
	for _, a := range append(proofs.Table2(), proofs.Extensions()...) {
		if gens[a.Operator] == nil {
			gens[a.Operator] = a.Gen
		}
	}
	// The synthetic candidates' reference bindings, each validated once.
	synth := map[string]*core.Binding{}
	for _, c := range synthCandidates {
		b, err := autoAnalyze(c)
		if err != nil {
			return nil, fmt.Errorf("synthetic %s: %w", c.Pair(), err)
		}
		if _, err := core.ValidateBinding(b, synthGen, searchValidation, seed); err != nil {
			return nil, fmt.Errorf("synthetic %s: %w", c.Pair(), err)
		}
		synth[c.Key()] = b
	}
	return &searchBench{real: real, seed: seed, tmp: tmp, reg: obs.NewRegistry(), gens: gens, synth: synth}, nil
}

// autoAnalyze is one candidate's unscripted analysis with the sweep's
// settings.
func autoAnalyze(c discover.Candidate) (*core.Binding, error) {
	op, ins, err := c.Descs()
	if err != nil {
		return nil, err
	}
	return core.AutoAnalyze(context.Background(), core.AutoSpec{
		Machine: c.Machine, Instruction: c.Instruction, Language: c.Language, Operation: c.Operation,
		Op: op, Ins: ins, Ladder: searchLadder, Workers: 1, Metrics: obs.NewRegistry(),
	})
}

// sweepList is sweep j's candidate list: the first n candidates of the
// seeded permutation with the synthetic ones, in an order seeded by j.
func (s *searchBench) sweepList(j, n int) []discover.Candidate {
	out := append(append([]discover.Candidate(nil), synthCandidates...), s.real[:n]...)
	rng := rand.New(rand.NewSource(s.seed*7919 + int64(j)))
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// sweep runs one discovery sweep with a fresh WAL directory, recording
// per-candidate durations into times when it is not nil.
func (s *searchBench) sweep(cands []discover.Candidate, dir string, jobs int, times *candidateTimes) (*discover.Report, error) {
	dir = filepath.Join(s.tmp, dir)
	defer os.RemoveAll(dir)
	var tr *obs.Tracer
	if times != nil {
		tr = obs.NewTracer(times)
	}
	sw, err := discover.New(discover.Config{
		Candidates: cands, Dir: dir, Jobs: jobs, Ladder: searchLadder,
		LeaseTTL: time.Minute, Metrics: s.reg, Tracer: tr,
	})
	if err != nil {
		return nil, err
	}
	return sw.Run(context.Background())
}

func isSynthetic(key string) bool {
	for _, c := range synthCandidates {
		if c.Key() == key {
			return true
		}
	}
	return false
}

// verdictCheck is the per-row output check: synthetic candidates must be
// found, real ones must end found or cleanly failed (budget), never poison.
func verdictCheck(r discover.Result) string {
	switch {
	case isSynthetic(r.Key()) && r.Outcome != "found":
		return fmt.Sprintf("synthetic %s: outcome %s: %s", r.Pair(), r.Outcome, r.Error)
	case r.Outcome != "found" && r.Outcome != "failed":
		return fmt.Sprintf("%s: outcome %s: %s", r.Pair(), r.Outcome, r.Error)
	}
	return ""
}

func (s *searchBench) run(d time.Duration, _ bool) (*outcome, error) {
	o := &outcome{wall: true, extra: map[string]float64{}}
	verdicts := map[string]discover.Result{}
	var keys []string // per sample, for marking failed validations
	start := time.Now()
	deadline := start.Add(d)
	for j := 0; j == 0 || time.Now().Before(deadline); j++ {
		times := newCandidateTimes()
		rep, err := s.sweep(s.sweepList(j, len(s.real)), fmt.Sprintf("sweep%d", j), 1, times)
		if err != nil {
			return nil, err
		}
		for _, r := range rep.Rows {
			if prev, ok := verdicts[r.Key()]; ok && (prev.Outcome != r.Outcome || prev.Steps != r.Steps) {
				return nil, fmt.Errorf("candidate %s answered %s/%d steps, then %s/%d steps: the search is not deterministic",
					r.Pair(), prev.Outcome, prev.Steps, r.Outcome, r.Steps)
			}
			verdicts[r.Key()] = r
			o.samples = append(o.samples, sample{kind: r.Key(), ms: times.durMS[r.Key()], cpuMS: times.cpuMS[r.Key()], failed: verdictCheck(r)})
			keys = append(keys, r.Key())
		}
	}
	o.elapsed = time.Since(start)

	// Every found binding must pass differential validation.
	found := 0
	bad := map[string]string{}
	for key, r := range verdicts {
		if r.Outcome != "found" {
			continue
		}
		found++
		if msg := s.validateFound(r); msg != "" {
			bad[key] = msg
		}
	}
	for i, key := range keys {
		if msg := bad[key]; msg != "" && o.samples[i].failed == "" {
			o.samples[i].failed = msg
		}
		if o.samples[i].failed != "" {
			o.fail(o.samples[i].failed)
		}
	}
	o.extra["bindings_found"] = float64(found)
	return o, nil
}

// validateFound checks a found row: a synthetic candidate must reproduce
// its reference binding's step count; a real one is re-derived and
// validated on the catalog's generator for its operator.
func (s *searchBench) validateFound(r discover.Result) string {
	if b := s.synth[r.Key()]; b != nil {
		if r.Steps != b.Steps {
			return fmt.Sprintf("synthetic %s: %d steps, reference %d", r.Pair(), r.Steps, b.Steps)
		}
		return ""
	}
	gen := s.gens[r.Operator]
	if gen == nil {
		return fmt.Sprintf("found %s: no validation generator for operator %s", r.Pair(), r.Operator)
	}
	b, err := autoAnalyze(discover.Candidate{Machine: r.Machine, Instruction: r.Instruction,
		Language: r.Language, Operation: r.Operation, Operator: r.Operator})
	if err != nil {
		return fmt.Sprintf("found %s: re-analysis: %v", r.Pair(), err)
	}
	if _, err := core.ValidateBinding(b, gen, searchValidation, s.seed); err != nil {
		return fmt.Sprintf("found %s: validation: %v", r.Pair(), err)
	}
	return ""
}

// The traced slice is the synthetic candidates plus searchTraceReal real
// ones, in seeded order.
func (s *searchBench) slice() []discover.Candidate { return s.sweepList(0, searchTraceReal) }

func (s *searchBench) entry(map[string]float64) error {
	rep, err := s.sweep(s.slice(), "entry", 1, nil)
	if err != nil {
		return err
	}
	s.verdicts = map[string]string{}
	for _, r := range rep.Rows {
		if msg := verdictCheck(r); msg != "" {
			return fmt.Errorf("entry pass: %s", msg)
		}
		s.verdicts[r.Key()] = r.Outcome
	}
	return nil
}

func (s *searchBench) layers(t *tracer, cnt counts) error {
	for _, c := range s.slice() {
		opSrc, insSrc := c.OpSrc, c.InsSrc
		if opSrc == "" {
			opSrc = operatorSource(c.Operator)
		}
		if insSrc == "" {
			insSrc = instructionSource(c.Instruction)
		}
		op, ins, err := parsePair(t, opSrc, insSrc)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Pair(), err)
		}
		reg := obs.NewRegistry()
		var sess *core.Session
		err = t.do("core.session", func() (err error) {
			sess, err = core.NewSession(op, ins)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.Pair(), err)
		}
		sess.Machine, sess.Instruction, sess.Language, sess.Operation = c.Machine, c.Instruction, c.Language, c.Operation
		sess.AutoWorkers, sess.Metrics = 1, reg
		var autoErr error
		_ = t.do("core.auto", func() error {
			_, autoErr = sess.AutoCompleteRetry(context.Background(), searchLadder)
			return nil
		})
		cnt.add("core.auto.states", float64(reg.Total("auto.explored")))
		cnt.add("core.auto.rungs", float64(reg.Total("auto.retry.attempt")))
		cnt.add("core.auto.probe_misses", float64(reg.Total("transform.precond")+reg.Total("transform.error")))
		var be *fault.BudgetError
		found := autoErr == nil
		if !found && !errors.As(autoErr, &be) {
			return fmt.Errorf("%s: auto search: %w", c.Pair(), autoErr)
		}
		if found {
			err = t.do("equiv.match", func() error {
				_, err := sess.Finish()
				return err
			})
			cnt.add("equiv.match.calls", 1)
			if err != nil {
				return fmt.Errorf("%s: finish: %w", c.Pair(), err)
			}
			cnt.add("bindings_found", 1)
		}
		cnt.add("ops", 1)
		if want := s.verdicts[c.Key()]; (want == "found") != found {
			cnt.add("failed", 1)
		}
	}
	return nil
}

func (s *searchBench) close() error { return nil }
