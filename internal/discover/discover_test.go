package discover

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"extra/internal/batch"
	"extra/internal/core"
	"extra/internal/fault"
	"extra/internal/fault/inject"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// Synthetic corpus for sweep tests: tstcpy/tstblt differ by surface
// rewrites only (commuted comparison, renamed variables), so the bounded
// auto-search proves the pair; tsthrd's loop counts upward with an
// inequality exit the argument-free transformations cannot bridge, so a
// small ladder exhausts its budget — a clean "failed" row.
const (
	tstOpSrc = `tstcpy.operation := begin
** S **
  n: integer, a: integer, b: integer,
  tstcpy.execute := begin
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

	tstInsSrc = `tstblt.instruction := begin
** S **
  cnt: integer, src: integer, dst: integer,
  tstblt.execute := begin
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

	tstHardSrc = `tsthrd.instruction := begin
** S **
  i: integer, lim: integer, src: integer, dst: integer,
  tsthrd.execute := begin
    input (i, lim, src, dst);
    repeat
      exit_when (i >= lim);
      Mb[dst + i] <- Mb[src + i];
      i <- i + 1;
    end_repeat;
  end
end`
)

func syntheticCandidates() []Candidate {
	return []Candidate{
		{Machine: "TestMach", Instruction: "tstblt", Language: "TestLang", Operation: "test move", Operator: "tstcpy",
			OpSrc: tstOpSrc, InsSrc: tstInsSrc},
		{Machine: "TestMach", Instruction: "tsthrd", Language: "TestLang", Operation: "test hard", Operator: "tstcpy",
			OpSrc: tstOpSrc, InsSrc: tstHardSrc},
	}
}

func testConfig(t *testing.T, dir string) Config {
	t.Helper()
	return Config{
		Candidates: syntheticCandidates(),
		Dir:        dir,
		Jobs:       2,
		Ladder:     []core.AutoRung{{MaxDepth: 3, Budget: 50000}},
		Metrics:    obs.NewRegistry(),
	}
}

func runSweep(t *testing.T, cfg Config) *Report {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// normalize zeroes the wall-clock fields a resume differential must ignore.
func normalize(rep *Report) string {
	cp := *rep
	cp.Rows = append([]Result(nil), rep.Rows...)
	cp.Found = append([]Result(nil), rep.Found...)
	for i := range cp.Rows {
		cp.Rows[i].DurationMS = 0
		cp.Rows[i].Trace = ""
	}
	for i := range cp.Found {
		cp.Found[i].DurationMS = 0
		cp.Found[i].Trace = ""
	}
	data, _ := json.Marshal(&cp)
	return string(data)
}

func TestEnumerateExcludesProvenPairs(t *testing.T) {
	cands := Enumerate(nil, nil)
	proven := 0
	for _, a := range proofs.Table2() {
		proven++
		_ = a
	}
	proven += len(proofs.Extensions())
	want := len(machines.All())*len(langops.All()) - proven
	if len(cands) != want {
		t.Fatalf("Enumerate: %d candidates, want %d (%d pairs minus %d proven)",
			len(cands), want, len(machines.All())*len(langops.All()), proven)
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c.Key()] {
			t.Fatalf("duplicate candidate %s", c.Key())
		}
		seen[c.Key()] = true
	}
	for _, a := range append(proofs.Table2(), proofs.Extensions()...) {
		for _, c := range cands {
			if c.Instruction == a.Instruction && c.Operator == a.Operator {
				t.Fatalf("proven pair %s/%s enumerated", a.Instruction, a.Operator)
			}
		}
	}
}

func TestEnumerateFilters(t *testing.T) {
	cands := Enumerate([]string{"IBM 370"}, []string{"Pascal"})
	if len(cands) == 0 {
		t.Fatal("filtered enumeration is empty")
	}
	for _, c := range cands {
		if c.Machine != "IBM 370" || c.Language != "Pascal" {
			t.Fatalf("filter leaked %s", c.Key())
		}
	}
	byIns := Enumerate([]string{"mvc"}, nil)
	for _, c := range byIns {
		if c.Instruction != "mvc" {
			t.Fatalf("instruction filter leaked %s", c.Key())
		}
	}
}

func TestSweepFindsAndFails(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	rep := runSweep(t, cfg)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows: %d, want 2", len(rep.Rows))
	}
	if rep.Outcomes["found"] != 1 || rep.Outcomes["failed"] != 1 {
		t.Fatalf("outcomes: %v, want 1 found + 1 failed", rep.Outcomes)
	}
	if len(rep.Found) != 1 || rep.Found[0].Instruction != "tstblt" {
		t.Fatalf("found: %+v", rep.Found)
	}
	if got := rep.Rows[1].Class; got != "budget" {
		t.Fatalf("hard pair class: %q, want budget", got)
	}
	if cfg.Metrics.Total("discover.found") != 1 || cfg.Metrics.Total("discover.failed") != 1 {
		t.Fatalf("counters: found=%d failed=%d", cfg.Metrics.Total("discover.found"), cfg.Metrics.Total("discover.failed"))
	}
	// The report is on disk, atomically, and matches what Run returned.
	data, err := os.ReadFile(filepath.Join(cfg.Dir, "report.json"))
	if err != nil {
		t.Fatalf("report.json: %v", err)
	}
	var onDisk Report
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatalf("report.json: %v", err)
	}
	if normalize(&onDisk) != normalize(rep) {
		t.Fatal("report.json does not match the returned report")
	}
	// Two workers each claimed a share of the work list: the WAL holds the
	// header plus exactly one row per candidate.
	wal := filepath.Join(cfg.Dir, "queue.jsonl")
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatalf("queue.jsonl: %v", err)
	}
	rows, config, err := batch.ReadJournal[Result](wal)
	if err != nil {
		t.Fatalf("queue.jsonl: %v", err)
	}
	if config != rep.Config || len(rows) != len(cfg.Candidates) || bytes.Count(raw, []byte("\n")) != 1+len(rows) {
		t.Fatalf("WAL: config %q, %d rows in %d lines; want config %q and header + %d rows",
			config, len(rows), bytes.Count(raw, []byte("\n")), rep.Config, len(cfg.Candidates))
	}
	if rows[0].Key() == rows[1].Key() {
		t.Fatalf("WAL answers %s twice", rows[0].Key())
	}
}

// TestSweepRowDuration pins duration_ms on engine-run rows: a candidate
// whose run is cut by EachTimeout is quarantined, so its row must record at
// least EachTimeout.
func TestSweepRowDuration(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	// A real unproven pair under a budget no run can spend in time.
	cfg.Candidates = Enumerate([]string{"VAX-11"}, []string{"Pascal"})[:1]
	cfg.Ladder = []core.AutoRung{{MaxDepth: 12, Budget: 1 << 30}}
	cfg.EachTimeout = 30 * time.Millisecond
	rep := runSweep(t, cfg)
	if len(rep.Rows) != 1 || rep.Rows[0].Outcome != "poison" || rep.Rows[0].Class != "timeout" {
		t.Fatalf("rows: %+v, want one poison row of class timeout", rep.Rows)
	}
	if got, floor := rep.Rows[0].DurationMS, cfg.EachTimeout.Milliseconds(); got < floor {
		t.Fatalf("duration_ms = %d, want >= %d (one run cut at %v)", got, floor, cfg.EachTimeout)
	}
}

func TestSweepPoisonQuarantine(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	in := inject.New(1)
	in.Arm(inject.Fault{Point: InjectPoint(cfg.Candidates[0]), Every: 1})
	defer inject.Activate(in)()

	rep := runSweep(t, cfg)
	if rep.Outcomes["poison"] != 1 {
		t.Fatalf("outcomes: %v, want 1 poison", rep.Outcomes)
	}
	var row Result
	for _, r := range rep.Rows {
		if r.Outcome == "poison" {
			row = r
		}
	}
	if row.Class != "panic" {
		t.Fatalf("poison row class: %q, want panic (the underlying fault)", row.Class)
	}
	if !strings.Contains(row.Error, "fault: "+row.Key()+" quarantined (last: ") {
		t.Fatalf("poison row error: %q", row.Error)
	}
	if cfg.Metrics.Total("discover.poison") != 1 {
		t.Fatalf("discover.poison = %d", cfg.Metrics.Total("discover.poison"))
	}
	// The dead-letter journal carries the quarantined candidate.
	data, err := os.ReadFile(filepath.Join(cfg.Dir, "poison.jsonl"))
	if err != nil {
		t.Fatalf("poison.jsonl: %v", err)
	}
	var dl deadLetter
	if err := json.Unmarshal(bytes.SplitN(data, []byte("\n"), 2)[0], &dl); err != nil {
		t.Fatalf("poison.jsonl row: %v", err)
	}
	if dl.Instruction != "tstblt" || dl.Class != "panic" {
		t.Fatalf("dead letter: %+v", dl)
	}
}

// TestSweepFaultOnceQuarantines: a candidate runs once and is quarantined on
// its first fault. The armed fault fires on the first crossing only, so a
// second run of tstblt would answer "found".
func TestSweepFaultOnceQuarantines(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	c := cfg.Candidates[0]
	point := InjectPoint(c)
	in := inject.New(1)
	in.Arm(inject.Fault{Point: point, Every: 0})
	defer inject.Activate(in)()

	rep := runSweep(t, cfg)
	var row Result
	for _, r := range rep.Rows {
		if r.Key() == c.Key() {
			row = r
		}
	}
	if row.Outcome != "poison" || row.Class != "panic" {
		t.Fatalf("%s: outcome %q class %q, want poison/panic", c.Key(), row.Outcome, row.Class)
	}
	if n := in.Crossings(point); n != 1 {
		t.Fatalf("%s crossed the injection point %d times, want 1 (one run)", c.Key(), n)
	}
}

// cancelOnAnswer cancels the sweep's context when a candidate's span ends:
// the answered candidate is still journaled, every later one runs under the
// canceled context.
type cancelOnAnswer struct{ cancel context.CancelFunc }

func (c cancelOnAnswer) Emit(e *obs.Event) {
	if e.Name == "discover.candidate" && e.Phase == "end" {
		c.cancel()
	}
}

// TestSweepResumeMatchesUninterrupted: a sweep canceled mid-run returns the
// context's error and journals no canceled row; a -resume run over that WAL
// runs only the unanswered candidate and reports exactly what an
// uninterrupted run does.
func TestSweepResumeMatchesUninterrupted(t *testing.T) {
	ref := runSweep(t, testConfig(t, t.TempDir()))

	cfg := testConfig(t, t.TempDir())
	cfg.Jobs = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Tracer = obs.NewTracer(cancelOnAnswer{cancel})
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run: err = %v, want context.Canceled", err)
	}
	rows, _, err := batch.ReadJournal[Result](walPath(cfg))
	if err != nil {
		t.Fatalf("WAL after cancel: %v", err)
	}
	if len(rows) != 1 || rows[0].Key() != ref.Rows[0].Key() || rows[0].Outcome == "canceled" {
		t.Fatalf("WAL after cancel: %+v, want only the first candidate's answer", rows)
	}

	cfg.Tracer = nil
	cfg.Metrics = obs.NewRegistry()
	rep := resumeSweep(t, cfg, 1)
	if normalize(rep) != normalize(ref) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%s\nvs\n%s", normalize(rep), normalize(ref))
	}
	if n := answered(cfg.Metrics); n != 1 {
		t.Fatalf("resume answered %d candidates, want 1 (no re-proving)", n)
	}
	if cfg.Metrics.Total("discover.resumed") != 1 {
		t.Fatalf("discover.resumed = %d", cfg.Metrics.Total("discover.resumed"))
	}
}

// TestSweepResumeRejectsConfigMismatch: resume refuses a WAL written under a
// different configuration.
func TestSweepResumeRejectsConfigMismatch(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	runSweep(t, cfg)
	cfg.Resume = true
	cfg.EachTimeout = 7 * time.Second // a different search configuration
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "config") {
		t.Fatalf("resume under a different config: err = %v, want fingerprint mismatch", err)
	}
}

func TestSweepRefusesExistingJournalWithoutResume(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	runSweep(t, cfg)
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("fresh run over an existing journal: err = %v, want refusal", err)
	}
}

// TestSearchVerdictsPinned runs every enumerated candidate through the
// bounded auto-search and folds each verdict — key, outcome, steps or the
// budget error's fields, and the auto.explored count — into one SHA-256.
// The digest was recorded from the level-at-a-time search the serial loop
// replaced, so a change that moves any candidate's answer, or how far its
// search got, fails here. The ladder is small enough to keep the test cheap
// under -race.
func TestSearchVerdictsPinned(t *testing.T) {
	const want = "dc2d88c489abf0c55688ef6b3a4fe40a0cc10c4be792b518c878982194159a30"
	ladder := core.AutoLadder(2, 25, 2)
	h := sha256.New()
	for _, c := range Enumerate(nil, nil) {
		op, ins, err := c.Descs()
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		b, err := core.AutoAnalyze(context.Background(), core.AutoSpec{Op: op, Ins: ins, Ladder: ladder, Metrics: reg})
		var be *fault.BudgetError
		switch {
		case err == nil:
			fmt.Fprintf(h, "%s|found|%d", c.Key(), b.Steps)
		case errors.As(err, &be):
			fmt.Fprintf(h, "%s|budget|%s|%d|%d|%d|%d|%d|%s", c.Key(),
				be.Op, be.Depth, be.Budget, be.Explored, be.Rung, be.Rungs, be.Reason)
		default:
			fmt.Fprintf(h, "%s|error|%v", c.Key(), err)
		}
		fmt.Fprintf(h, "|%d\n", reg.Total("auto.explored"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("verdict digest = %s, want %s", got, want)
	}
}
