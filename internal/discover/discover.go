// Package discover is the durable discovery sweep: an exhaustive,
// kill-safe driver over the (machine, instruction) × (language, operator)
// cross-product, asking for every pair the proof catalog has NOT proven
// whether the bounded auto-search alone (core.AutoAnalyze) can close the
// gap to common form. The paper's EXTRA analyzed eleven pairs an analyst
// chose; a sweep inverts the economics — machine time is cheap, so try
// everything and let an analyst read the report.
//
// A sweep is long-running and must survive operator kills and OOM kills, so
// every answered candidate is one fsync'd row in a WAL — a batch.Journal
// behind the same config-fingerprint header a batch journal carries — and
// the candidates run on the batch worker pool, each claimed exactly once. A
// -resume run replays the WAL (first row per candidate wins) and produces a
// report byte-identical — modulo wall-clock fields — to an uninterrupted
// run, because the search itself is deterministic. A candidate whose run
// faults (a description that does not parse, a panic, a timeout — not a
// clean budget exhaustion, which is a *result*) is quarantined at once with
// its underlying fault class rather than wedging the sweep ("poison" in the
// fault taxonomy); its row, like every other, is journaled in the WAL and
// listed in the report.
package discover

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"extra/internal/batch"
	"extra/internal/core"
	"extra/internal/fault"
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

// Pair is the candidate's instruction/operator label (metrics).
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
	// Dir holds the sweep's durable state: queue.jsonl (the WAL) and
	// report.json (the product).
	Dir string
	// Jobs is the candidate-level worker count (0 = GOMAXPROCS).
	Jobs int
	// Ladder is the per-candidate escalating (depth, budget) retry ladder;
	// nil means core.AutoLadder(3, 1000, 2).
	Ladder []core.AutoRung
	// EachTimeout bounds each candidate's run (0 = no deadline).
	EachTimeout time.Duration
	// LeaseTTL is ignored. Each candidate is claimed exactly once per run, so
	// there is no claim to expire; the field stays so existing callers build.
	LeaseTTL time.Duration
	// Resume continues an interrupted sweep from Dir's WAL.
	Resume bool
	// Metrics receives the discover.* counters; nil means the process
	// default. Spans go to the context's tracer; Run installs Tracer there
	// when it is set, which only the benchmark module does.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// Sweep is one configured discovery run over its durable directory.
type Sweep struct {
	cfg    Config
	cands  []Candidate
	digest string
	wal    *batch.Journal
	// rows[i] is candidate i's answer, nil until it has one; each index is
	// written by the one worker that claimed it.
	rows    []*Result
	resumed int
}

// New prepares the sweep: enumerates candidates, fingerprints the
// configuration, and opens (or resumes) the WAL under cfg.Dir.
func New(cfg Config) (*Sweep, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("discover: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("discover: %w", err)
	}
	if len(cfg.Ladder) == 0 {
		cfg.Ladder = core.AutoLadder(3, 1000, 2)
	}
	cands := cfg.Candidates
	if cands == nil {
		cands = Enumerate(cfg.Machines, cfg.Operators)
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("discover: no candidates (filters excluded everything)")
	}
	s := &Sweep{cfg: cfg, cands: cands}

	// The WAL digest covers the search configuration and the candidate set:
	// a resume must face the exact same work-list or its carried-over rows
	// are meaningless.
	parts := []string{"discover", "each-timeout=" + cfg.EachTimeout.String()}
	for _, r := range cfg.Ladder {
		parts = append(parts, fmt.Sprintf("rung=%d/%d", r.MaxDepth, r.Budget))
	}
	for _, c := range cands {
		parts = append(parts, c.Key())
	}
	s.digest = batch.ConfigDigest(parts...)

	if err := s.openWAL(filepath.Join(cfg.Dir, "queue.jsonl")); err != nil {
		return nil, err
	}
	return s, nil
}

// openWAL replays a previous run's WAL when resuming (its header must carry
// this run's digest, and every row must belong to a candidate of this run),
// then opens it for appending.
func (s *Sweep) openWAL(path string) error {
	byKey := make(map[string]int, len(s.cands))
	for i, c := range s.cands {
		if _, dup := byKey[c.Key()]; dup {
			return fmt.Errorf("discover: duplicate candidate %s", c.Key())
		}
		byKey[c.Key()] = i
	}
	if st, err := os.Stat(path); err == nil && st.Size() > 0 && !s.cfg.Resume {
		return fmt.Errorf("discover: %s already holds a sweep journal; pass -resume to continue it or choose a fresh directory", path)
	}
	s.rows = make([]*Result, len(s.cands))
	if s.cfg.Resume {
		rows, err := batch.ResumeJournal[Result](path, s.digest)
		if err != nil {
			return fmt.Errorf("discover: %w", err)
		}
		for _, r := range rows {
			i, known := byKey[r.Key()]
			if !known {
				return fmt.Errorf("discover: journal %s holds a row for unknown candidate %s", path, r.Key())
			}
			if s.rows[i] == nil {
				s.rows[i] = &r
				s.resumed++
			}
		}
	}
	wal, err := batch.OpenJournal(path)
	if err != nil {
		return err
	}
	if err := wal.WriteHeader(s.digest); err != nil {
		wal.Close()
		return err
	}
	s.wal = wal
	s.metrics().Add("discover.resumed", "", uint64(s.resumed))
	return nil
}

// ConfigDigest is the run-configuration fingerprint stamped into the WAL
// header.
func (s *Sweep) ConfigDigest() string { return s.digest }

// Candidates reports the size of the sweep's work-list.
func (s *Sweep) Candidates() int { return len(s.cands) }

// Resumed reports how many rows were carried over from a previous run.
func (s *Sweep) Resumed() int { return s.resumed }

func (s *Sweep) metrics() *obs.Registry {
	if s.cfg.Metrics != nil {
		return s.cfg.Metrics
	}
	return obs.Default()
}

// Run answers every candidate the WAL does not already hold on the worker
// pool, then writes the report. On context cancellation (SIGTERM) it
// returns ctx's error once the workers in flight have stopped: every
// completed candidate is already journaled, so the sweep resumes exactly
// where it stopped. A kill -9 loses at most the candidates in flight.
func (s *Sweep) Run(ctx context.Context) (*Report, error) {
	defer s.Close()
	if s.cfg.Tracer != nil {
		ctx = obs.WithTrace(ctx, s.cfg.Tracer, obs.TracerFrom(ctx).TraceID())
	}
	var pending []int
	for i, r := range s.rows {
		if r == nil {
			pending = append(pending, i)
		}
	}
	err := batch.Pool(s.cfg.Jobs, len(pending), func(n int) error {
		return s.settle(ctx, pending[n])
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Result, len(s.rows))
	for i, r := range s.rows {
		rows[i] = *r
	}
	rep := buildReport(s.digest, len(s.cands), rows)
	if err := rep.Write(filepath.Join(s.cfg.Dir, "report.json")); err != nil {
		return nil, err
	}
	return rep, nil
}

// Close releases the sweep's WAL. Idempotent.
func (s *Sweep) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// settle answers candidate i and journals the row.
func (s *Sweep) settle(ctx context.Context, i int) error {
	res := s.runCandidate(ctx, s.cands[i])
	if res.Outcome == "canceled" {
		// Not journaled: the candidate's work was cut short, so the row is
		// not a result, and the candidate re-runs on resume.
		if err := ctx.Err(); err != nil {
			return err
		}
		return errors.New(res.Error)
	}
	if err := s.wal.Append(&res); err != nil {
		return fmt.Errorf("discover: journaling result for %s: %w", res.Key(), err)
	}
	s.rows[i] = &res
	m := s.metrics()
	m.Inc("discover."+res.Outcome, res.Pair())
	if res.Outcome == "found" && res.SavingsCycles > 0 {
		m.SetMax("discover.savings.cycles", res.Machine+"/"+res.Pair(), res.SavingsCycles)
	}
	return nil
}

// runCandidate attacks one candidate with the search ladder once,
// classifying the terminal error: success → "found" (with cycle savings),
// budget exhaustion → "failed" (a clean negative result), cancellation →
// "canceled" (not a result), anything else — panic, timeout, hostile
// description — quarantines as "poison" carrying the underlying fault class.
// The engine is deterministic, so a fault would recur: there is no retry.
func (s *Sweep) runCandidate(ctx context.Context, c Candidate) (res Result) {
	start := time.Now()
	tr := obs.TracerFrom(ctx)
	res = Result{
		Machine:     c.Machine,
		Instruction: c.Instruction,
		Language:    c.Language,
		Operation:   c.Operation,
		Operator:    c.Operator,
		Trace:       tr.TraceID(),
	}
	var sp obs.Span
	if tr.Enabled() {
		sp = tr.StartSpan("discover.candidate", map[string]any{"candidate": c.Key()})
	}
	defer func() {
		res.DurationMS = time.Since(start).Milliseconds()
		if tr.Enabled() {
			sp.End(map[string]any{"outcome": res.Outcome, "class": res.Class})
		}
	}()

	op, ins, err := c.Descs()
	var b *core.Binding
	if err == nil {
		b, err = s.attempt(ctx, c, op, ins)
	}
	res.Class = fault.Classify(err)
	switch {
	case err == nil:
		res.Outcome = "found"
		res.Steps = b.Steps
		res.Elementary = b.Elementary
		evalSavings(c, b, &res)
		return res
	case res.Class == "budget":
		// The ladder ran dry: a clean, deterministic negative result.
		res.Outcome = "failed"
	case res.Class == "canceled", res.Class == "timeout" && ctx.Err() != nil:
		// Canceled, or the sweep shutting down rather than the candidate
		// timing out: not a result.
		res.Outcome = "canceled"
		res.Class = "canceled"
	default:
		// A description that does not resolve, a panic, a timeout.
		res.Outcome = "poison"
		err = &fault.PoisonError{Key: c.Key(), Last: err}
	}
	res.Error = err.Error()
	return res
}

// beforeAttempt, when set, is called at the start of every candidate's
// run, inside its recovery boundary; tests set it to make a run panic.
var beforeAttempt func(Candidate)

// attempt is one bounded engine run behind a recovery boundary.
func (s *Sweep) attempt(ctx context.Context, c Candidate, op, ins *isps.Description) (_ *core.Binding, err error) {
	defer fault.RecoverInto(&err, "discover.candidate")
	if beforeAttempt != nil {
		beforeAttempt(c)
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
		Metrics:     s.cfg.Metrics,
	})
}
