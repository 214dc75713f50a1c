// Package discover is the durable discovery sweep: an exhaustive,
// kill-safe driver over the (machine, instruction) × (language, operator)
// cross-product, asking for every pair the proof catalog has NOT proven
// whether the bounded auto-search alone (core.AutoAnalyze) can close the
// gap to common form. The paper's EXTRA analyzed eleven pairs an analyst
// chose; a sweep inverts the economics — machine time is cheap, so try
// everything and let an analyst read the report.
//
// A sweep is long-running and must survive operator kills, OOM kills, and
// wedged candidates, so every unit of progress is one fsync'd row in a WAL
// (queue.go): candidates are claimed under leases with deadlines, expired
// leases return their candidate to the queue, completions are idempotent
// (first journaled row per candidate wins), and a -resume run replays the
// WAL and produces a report byte-identical — modulo wall-clock fields — to
// an uninterrupted run, because the search itself is deterministic at every
// worker count. A candidate that keeps faulting (panic, timeout — not a
// clean budget exhaustion, which is a *result*) is quarantined to a
// dead-letter journal with its underlying fault class rather than wedging
// the sweep ("poison" in the fault taxonomy). Cross-run dedup rides the
// content-addressed cache: rows are keyed by the description pair's
// structural digest salted with the search configuration, so a warm cache
// directory skips candidates any previous sweep — even a differently
// filtered one — already answered.
package discover

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"extra/internal/batch"
	"extra/internal/cache"
	"extra/internal/core"
	"extra/internal/fault"
	"extra/internal/fault/inject"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// Candidate is one unproven (instruction, operator) pair to attack.
type Candidate struct {
	Machine     string
	Instruction string
	Language    string
	Operation   string
	Operator    string
	// OpSrc and InsSrc, when non-empty, override the catalog sources —
	// synthetic corpora for tests and drills. They do not enter Key; a
	// synthetic candidate should carry distinguishing label fields.
	OpSrc  string
	InsSrc string
}

// Key is the candidate's stable identity in the WAL and the report.
func (c Candidate) Key() string {
	return strings.Join([]string{c.Machine, c.Instruction, c.Language, c.Operation, c.Operator}, "|")
}

// Pair is the candidate's instruction/operator label (metrics, injection
// seams).
func (c Candidate) Pair() string { return c.Instruction + "/" + c.Operator }

// Descs resolves the candidate's operator and instruction descriptions:
// explicit source overrides first, the corpora otherwise.
func (c Candidate) Descs() (op, ins *isps.Description, err error) {
	if c.OpSrc != "" {
		d, perr := isps.Parse(c.OpSrc)
		if perr != nil {
			return nil, nil, fmt.Errorf("discover: operator %s: %w", c.Operator, perr)
		}
		op = isps.InternDesc(d)
	} else if op = langops.Get(c.Operator); op == nil {
		return nil, nil, fmt.Errorf("discover: unknown operator %q", c.Operator)
	}
	if c.InsSrc != "" {
		d, perr := isps.Parse(c.InsSrc)
		if perr != nil {
			return nil, nil, fmt.Errorf("discover: instruction %s: %w", c.Instruction, perr)
		}
		ins = isps.InternDesc(d)
	} else if ins = machines.Get(c.Instruction); ins == nil {
		return nil, nil, fmt.Errorf("discover: unknown instruction %q", c.Instruction)
	}
	return op, ins, nil
}

// Enumerate builds the sweep's candidate set: the full instruction ×
// operator cross-product minus every pair the proof catalog (Table 2 and
// the extensions) has already proven. Filters are optional CSV-style value
// lists: a machine filter entry matches a machine or instruction name, an
// operator filter entry matches a language, operation, or operator name.
// Order is deterministic: catalog order, instructions outer.
func Enumerate(machineFilter, operatorFilter []string) []Candidate {
	proven := map[string]bool{}
	for _, a := range proofs.Table2() {
		proven[a.Instruction+"|"+a.Operator] = true
	}
	for _, a := range proofs.Extensions() {
		proven[a.Instruction+"|"+a.Operator] = true
	}
	var out []Candidate
	for _, ins := range machines.All() {
		if !matchFilter(machineFilter, ins.Machine, ins.Instruction) {
			continue
		}
		for _, op := range langops.All() {
			if !matchFilter(operatorFilter, op.Language, op.Operation, op.Name) {
				continue
			}
			if proven[ins.Instruction+"|"+op.Name] {
				continue
			}
			out = append(out, Candidate{
				Machine:     ins.Machine,
				Instruction: ins.Instruction,
				Language:    op.Language,
				Operation:   op.Operation,
				Operator:    op.Name,
			})
		}
	}
	return out
}

func matchFilter(filter []string, names ...string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		for _, n := range names {
			if f == n {
				return true
			}
		}
	}
	return false
}

// Config parameterizes a Sweep.
type Config struct {
	// Candidates overrides the candidate set (tests, drills); nil means
	// Enumerate(Machines, Operators).
	Candidates []Candidate
	// Machines and Operators filter the enumerated cross-product.
	Machines, Operators []string
	// Dir holds the sweep's durable state: queue.jsonl (the WAL),
	// poison.jsonl (the dead-letter journal), report.json (the product).
	Dir string
	// Jobs is the candidate-level worker count (0 = GOMAXPROCS).
	Jobs int
	// Ladder is the per-candidate escalating (depth, budget) retry ladder;
	// nil means core.AutoLadder(3, 1000, 2).
	Ladder []core.AutoRung
	// SearchWorkers is the auto-search frontier pool width per candidate
	// (0 = 1: the sweep parallelizes across candidates, not within them).
	SearchWorkers int
	// Attempts is how many faulting runs a candidate gets before it is
	// quarantined as poison (default 2). A budget exhaustion is a clean
	// negative result, not a fault, and is never retried.
	Attempts int
	// EachTimeout bounds each attempt (0 = no per-attempt deadline).
	EachTimeout time.Duration
	// LeaseTTL is the claim deadline (see QueueConfig).
	LeaseTTL time.Duration
	// Resume continues an interrupted sweep from Dir's WAL.
	Resume bool
	// Cache, when non-nil, provides cross-run dedup: rows keyed by the
	// description-pair digest salted with the search configuration. The
	// cache must have been built with KeepFailures (negative rows are the
	// expensive ones).
	Cache *cache.Cache
	// Tracer and Metrics receive spans and the discover.* counters; nil
	// Metrics means the process default.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// Sweep is one configured discovery run over its durable directory.
type Sweep struct {
	cfg    Config
	cands  []Candidate
	digest string
	salt   uint64
	q      *Queue
	poison *batch.Journal
}

// New prepares the sweep: enumerates candidates, fingerprints the
// configuration, and opens (or resumes) the WAL and dead-letter journals
// under cfg.Dir.
func New(cfg Config) (*Sweep, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("discover: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("discover: %w", err)
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 2
	}
	if len(cfg.Ladder) == 0 {
		cfg.Ladder = core.AutoLadder(3, 1000, 2)
	}
	if cfg.SearchWorkers <= 0 {
		cfg.SearchWorkers = 1
	}
	cands := cfg.Candidates
	if cands == nil {
		cands = Enumerate(cfg.Machines, cfg.Operators)
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("discover: no candidates (filters excluded everything)")
	}
	s := &Sweep{cfg: cfg, cands: cands}

	// Two fingerprints. The salt covers only the search configuration —
	// cache entries are shared across differently filtered sweeps. The WAL
	// digest adds the candidate set: a resume must face the exact same
	// work-list or its carried-over rows are meaningless.
	saltParts := searchConfigParts(cfg)
	saltHex := batch.ConfigDigest(saltParts...)
	salt, err := strconv.ParseUint(saltHex, 16, 64)
	if err != nil {
		return nil, fmt.Errorf("discover: %w", err)
	}
	s.salt = salt
	walParts := append([]string{"discover"}, saltParts...)
	for _, c := range cands {
		walParts = append(walParts, c.Key())
	}
	s.digest = batch.ConfigDigest(walParts...)

	q, err := OpenQueue(cands, QueueConfig{
		Path:     filepath.Join(cfg.Dir, "queue.jsonl"),
		Config:   s.digest,
		LeaseTTL: cfg.LeaseTTL,
		Resume:   cfg.Resume,
		Metrics:  cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	poison, err := batch.OpenJournal(filepath.Join(cfg.Dir, "poison.jsonl"))
	if err != nil {
		q.Close()
		return nil, err
	}
	s.q = q
	s.poison = poison
	return s, nil
}

// searchConfigParts lists every knob that changes a candidate's row.
func searchConfigParts(cfg Config) []string {
	parts := []string{
		"attempts=" + strconv.Itoa(cfg.Attempts),
		"each-timeout=" + cfg.EachTimeout.String(),
	}
	for _, r := range cfg.Ladder {
		parts = append(parts, fmt.Sprintf("rung=%d/%d", r.MaxDepth, r.Budget))
	}
	return parts
}

// ConfigDigest is the run-configuration fingerprint stamped into the WAL
// header.
func (s *Sweep) ConfigDigest() string { return s.digest }

// Candidates reports the size of the sweep's work-list.
func (s *Sweep) Candidates() int { return len(s.cands) }

// Resumed reports how many rows were carried over from a previous run.
func (s *Sweep) Resumed() int { return s.q.Resumed() }

func (s *Sweep) metrics() *obs.Registry {
	if s.cfg.Metrics != nil {
		return s.cfg.Metrics
	}
	return obs.Default()
}

// Run drains the queue with a worker pool and writes the report. On context
// cancellation (SIGTERM) it returns ctx's error after the workers have
// checkpointed: every completed candidate is already journaled, so the
// sweep resumes exactly where it stopped. A kill -9 loses at most the
// in-flight candidates — their leases expire on resume.
func (s *Sweep) Run(ctx context.Context) (*Report, error) {
	defer s.Close()
	jobs := s.cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(s.cands) {
		jobs = len(s.cands)
	}
	errCh := make(chan error, jobs)
	for w := 1; w <= jobs; w++ {
		go func(w int) { errCh <- s.worker(ctx, w) }(w)
	}
	var firstErr error
	for i := 0; i < jobs; i++ {
		if err := <-errCh; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	rows := s.q.Done()
	rep := buildReport(s.digest, len(s.cands), rows)
	// Re-derive the dead-letter journal from the journaled rows: appends
	// during the run give liveness, this gives exactness — a kill between
	// a result row and its dead-letter append cannot lose a quarantine.
	if err := s.rewriteDeadLetter(rows); err != nil {
		return nil, err
	}
	if err := rep.Write(filepath.Join(s.cfg.Dir, "report.json")); err != nil {
		return nil, err
	}
	return rep, nil
}

// Close releases the sweep's journals. Idempotent.
func (s *Sweep) Close() error {
	err := s.q.Close()
	if perr := s.poison.Close(); err == nil {
		err = perr
	}
	return err
}

// worker drains the queue: claim, resolve (cache or engine), journal.
func (s *Sweep) worker(ctx context.Context, w int) error {
	for {
		l, err := s.q.Claim(ctx, w)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if l == nil {
			return nil
		}
		res, fromCache := s.resolve(ctx, l.Cand)
		if res.Outcome == "canceled" {
			// Not journaled: the candidate's work was cut short, so the row
			// is not a result. Its lease dies with this run and the
			// candidate re-runs on resume.
			return ctx.Err()
		}
		accepted, err := s.q.Complete(l, res)
		if err != nil {
			return err
		}
		if !accepted {
			continue // a re-run finished first; this row is surplus
		}
		m := s.metrics()
		m.Inc("discover."+res.Outcome, res.Pair())
		if fromCache {
			m.Inc("discover.cached", res.Pair())
		}
		switch res.Outcome {
		case "poison":
			if err := s.poison.AppendAny(deadLetterRow(res)); err != nil {
				return err
			}
		case "found":
			if res.SavingsCycles > 0 {
				m.SetMax("discover.savings.cycles", res.Machine+"/"+res.Pair(), res.SavingsCycles)
			}
		}
	}
}

// resolve answers one candidate: from the cross-run cache when warm, from
// the engine otherwise (and then teaches the cache).
func (s *Sweep) resolve(ctx context.Context, c Candidate) (Result, bool) {
	key, keyOK := s.cacheKey(c)
	if keyOK && s.cfg.Cache != nil {
		if ent, hit := s.cfg.Cache.Get(key); hit && len(ent.Sweep) > 0 {
			var r Result
			if json.Unmarshal(ent.Sweep, &r) == nil && r.Key() == c.Key() {
				// The cached row is the cold run's, re-stamped with this
				// run's trace; DurationMS stays 0 — the serve cost, not a
				// re-claim of the cold cost.
				r.Trace = obs.TraceIDFrom(ctx)
				return r, true
			}
		}
	}
	res := s.runCandidate(ctx, c)
	if keyOK && s.cfg.Cache != nil && res.Outcome != "canceled" {
		stored := res
		stored.DurationMS = 0
		stored.Trace = ""
		if raw, err := json.Marshal(&stored); err == nil {
			s.cfg.Cache.Put(key, cache.Entry{Result: batchRow(stored), Sweep: raw})
		}
	}
	return res, false
}

// cacheKey digests the candidate's resolved description pair, salted with
// the search configuration. ok=false when the descriptions do not resolve —
// such a candidate is answered (as poison) by runCandidate, not cached.
func (s *Sweep) cacheKey(c Candidate) (cache.Key, bool) {
	op, ins, err := c.Descs()
	if err != nil {
		return cache.Key{}, false
	}
	return cache.KeyForPair(op, ins, 0, false, s.salt), true
}

// batchRow mirrors a sweep row into the batch report shape the cache
// envelope carries.
func batchRow(r Result) batch.Result {
	return batch.Result{
		Machine:     r.Machine,
		Instruction: r.Instruction,
		Language:    r.Language,
		Operation:   r.Operation,
		Operator:    r.Operator,
		Outcome:     r.Outcome,
		Error:       r.Error,
		Steps:       r.Steps,
		Elementary:  r.Elementary,
	}
}

// InjectPoint is the deterministic fault-injection seam crossed once per
// candidate attempt; arm it with inject.Fault{Every: 1} to make a candidate
// reliably poisonous.
func InjectPoint(c Candidate) string { return "discover.candidate:" + c.Pair() }

// runCandidate attacks one candidate with the retry ladder, classifying the
// terminal error: success → "found" (with cycle savings), budget exhaustion
// → "failed" (a clean negative result), cancellation → "canceled" (not a
// result), anything else — panic, timeout, hostile description — retries up
// to Attempts times and then quarantines as "poison" carrying the
// underlying fault class.
func (s *Sweep) runCandidate(ctx context.Context, c Candidate) (res Result) {
	start := time.Now()
	res = Result{
		Machine:     c.Machine,
		Instruction: c.Instruction,
		Language:    c.Language,
		Operation:   c.Operation,
		Operator:    c.Operator,
		Trace:       obs.TraceIDFrom(ctx),
	}
	sp := s.cfg.Tracer.StartSpan("discover.candidate", map[string]any{"candidate": c.Key()})
	defer func() {
		res.DurationMS = time.Since(start).Milliseconds()
		sp.End(map[string]any{"outcome": res.Outcome, "class": res.Class})
	}()

	op, ins, err := c.Descs()
	if err != nil {
		// A candidate whose descriptions do not even resolve can never
		// succeed: straight to quarantine, no retries.
		perr := &fault.PoisonError{Key: c.Key(), Attempts: 1, Last: err}
		res.Outcome = "poison"
		res.Class = fault.Classify(err)
		res.Error = perr.Error()
		return res
	}

	var last error
	for attempt := 1; attempt <= s.cfg.Attempts; attempt++ {
		b, err := s.attempt(ctx, c, op, ins)
		if err == nil {
			res.Outcome = "found"
			res.Class = "ok"
			res.Steps = b.Steps
			res.Elementary = b.Elementary
			evalSavings(c, b, &res)
			return res
		}
		switch class := fault.Classify(err); class {
		case "budget":
			// The ladder ran dry: a clean, deterministic negative result.
			res.Outcome = "failed"
			res.Class = class
			res.Error = err.Error()
			return res
		case "canceled":
			res.Outcome = "canceled"
			res.Class = class
			res.Error = err.Error()
			return res
		case "timeout":
			if ctx.Err() != nil {
				// The sweep is shutting down, not the candidate timing out.
				res.Outcome = "canceled"
				res.Class = "canceled"
				res.Error = err.Error()
				return res
			}
			last = err
		default:
			last = err
		}
	}
	perr := &fault.PoisonError{Key: c.Key(), Attempts: s.cfg.Attempts, Last: last}
	res.Outcome = "poison"
	res.Class = fault.Classify(last)
	res.Error = perr.Error()
	return res
}

// attempt is one bounded engine run behind a recovery boundary and the
// injection seam.
func (s *Sweep) attempt(ctx context.Context, c Candidate, op, ins *isps.Description) (_ *core.Binding, err error) {
	defer fault.RecoverInto(&err, "discover.candidate")
	if _, fired := inject.Fire(InjectPoint(c)); fired {
		panic("injected discovery fault at " + InjectPoint(c))
	}
	actx := ctx
	if s.cfg.EachTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, s.cfg.EachTimeout)
		defer cancel()
	}
	return core.AutoAnalyze(actx, core.AutoSpec{
		Machine:     c.Machine,
		Instruction: c.Instruction,
		Language:    c.Language,
		Operation:   c.Operation,
		Op:          op,
		Ins:         ins,
		Ladder:      s.cfg.Ladder,
		Workers:     s.cfg.SearchWorkers,
		Tracer:      s.cfg.Tracer,
		Metrics:     s.cfg.Metrics,
	})
}

// deadLetter is one quarantined candidate in poison.jsonl: identity, the
// underlying fault class, and the full poison error. No wall-clock fields —
// the file is diffable across runs.
type deadLetter struct {
	Machine     string `json:"machine"`
	Instruction string `json:"instruction"`
	Language    string `json:"language"`
	Operation   string `json:"operation"`
	Operator    string `json:"operator"`
	Class       string `json:"class"`
	Error       string `json:"error"`
}

func deadLetterRow(r Result) deadLetter {
	return deadLetter{
		Machine:     r.Machine,
		Instruction: r.Instruction,
		Language:    r.Language,
		Operation:   r.Operation,
		Operator:    r.Operator,
		Class:       r.Class,
		Error:       r.Error,
	}
}

// rewriteDeadLetter replaces poison.jsonl with the canonical quarantine
// set — the journaled poison rows in candidate order — atomically. The
// incremental appends during the run keep the file live for an operator
// watching a long sweep; this write makes it exact.
func (s *Sweep) rewriteDeadLetter(rows []Result) error {
	path := filepath.Join(s.cfg.Dir, "poison.jsonl")
	return batch.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, r := range rows {
			if r.Outcome != "poison" {
				continue
			}
			if err := enc.Encode(deadLetterRow(r)); err != nil {
				return err
			}
		}
		return nil
	})
}
