package discover

import (
	"context"
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
	"extra/internal/obs"
)

// Tests of the sweep's durable work queue: queue.jsonl, a batch.Journal of
// Result rows behind the config header, drained by the batch worker pool.

func walPath(cfg Config) string { return filepath.Join(cfg.Dir, "queue.jsonl") }

// startWAL leaves cfg.Dir holding a WAL with only this sweep's header.
func startWAL(t *testing.T, cfg Config) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Close()
}

// appendWAL appends raw text to the WAL, as an earlier (possibly killed)
// writer would have left it.
func appendWAL(t *testing.T, cfg Config, text ...string) {
	t.Helper()
	f, err := os.OpenFile(walPath(cfg), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, s := range text {
		if _, err := f.WriteString(s); err != nil {
			t.Fatal(err)
		}
	}
}

func rowLine(r Result) string {
	data, _ := json.Marshal(&r)
	return string(data) + "\n"
}

// answered counts the candidates a run settled itself (not carried over).
func answered(m *obs.Registry) uint64 {
	return m.Total("discover.found") + m.Total("discover.failed") + m.Total("discover.poison")
}

// resumeSweep resumes cfg's WAL, checks how many rows it carried over, and
// runs the rest.
func resumeSweep(t *testing.T, cfg Config, wantResumed int) *Report {
	t.Helper()
	cfg.Resume = true
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(resume): %v", err)
	}
	if s.Resumed() != wantResumed {
		t.Fatalf("Resumed = %d, want %d", s.Resumed(), wantResumed)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run(resume): %v", err)
	}
	return rep
}

// TestQueueDoubleClaimIdempotence: a candidate answered twice in the WAL
// counts once — resume keeps the first row, re-runs nothing for it, and the
// report carries that row, not the later one.
func TestQueueDoubleClaimIdempotence(t *testing.T) {
	ref := runSweep(t, testConfig(t, t.TempDir()))
	cfg := testConfig(t, t.TempDir())
	startWAL(t, cfg)
	first := ref.Rows[0]
	later := first
	later.Outcome, later.Class = "poison", "panic"
	appendWAL(t, cfg, rowLine(first), rowLine(later))

	rep := resumeSweep(t, cfg, 1)
	if normalize(rep) != normalize(ref) {
		t.Fatalf("report after a doubly answered candidate differs from an uninterrupted run:\n%s\nvs\n%s",
			normalize(rep), normalize(ref))
	}
	if n := answered(cfg.Metrics); n != 1 {
		t.Fatalf("resume answered %d candidates, want 1 (the doubly answered one is settled)", n)
	}
	if n := cfg.Metrics.Total("discover.poison"); n != 0 {
		t.Fatalf("discover.poison = %d: the later row counted", n)
	}
}

// TestQueueConcurrentDrain: a pool of workers smaller than the work list
// drains it — every candidate is answered exactly once, in the WAL and in
// the report, whichever worker claimed it.
func TestQueueConcurrentDrain(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.Jobs = 4
	var cands []Candidate
	for i := 0; i < 4; i++ {
		for _, c := range syntheticCandidates() {
			c.Operation = fmt.Sprintf("%s %d", c.Operation, i)
			cands = append(cands, c)
		}
	}
	cfg.Candidates = cands
	rep := runSweep(t, cfg)

	if len(rep.Rows) != len(cands) {
		t.Fatalf("report: %d rows, want %d", len(rep.Rows), len(cands))
	}
	for i, r := range rep.Rows {
		if r.Key() != cands[i].Key() {
			t.Fatalf("report row %d is %s, want %s (candidate order)", i, r.Key(), cands[i].Key())
		}
	}
	if rep.Outcomes["found"] != 4 || rep.Outcomes["failed"] != 4 {
		t.Fatalf("outcomes: %v, want 4 found + 4 failed", rep.Outcomes)
	}
	if n := answered(cfg.Metrics); n != uint64(len(cands)) {
		t.Fatalf("answered %d times, want %d", n, len(cands))
	}
	rows, _, err := batch.ReadJournal[Result](walPath(cfg))
	if err != nil {
		t.Fatalf("queue.jsonl: %v", err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Key()] {
			t.Fatalf("WAL answers %s twice", r.Key())
		}
		seen[r.Key()] = true
	}
	if len(seen) != len(cands) {
		t.Fatalf("WAL answers %d candidates, want %d", len(seen), len(cands))
	}
}

// TestQueueClaimHonorsContext: a sweep whose workers are all mid-search
// returns promptly with the context's error when it is told to shut down,
// and journals nothing for the cut-short candidates, so a resume re-runs
// them.
func TestQueueClaimHonorsContext(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	// Real unproven pairs under a budget no search spends in this test's
	// lifetime, and no per-attempt deadline: only cancellation ends them.
	cfg.Candidates = Enumerate([]string{"VAX-11"}, []string{"Pascal"})[:2]
	cfg.Ladder = []core.AutoRung{{MaxDepth: 12, Budget: 1 << 30}}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Run: err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run ignored cancellation")
	}
	rows, _, err := batch.ReadJournal[Result](walPath(cfg))
	if err != nil {
		t.Fatalf("queue.jsonl: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("WAL after cancel: %+v, want no rows", rows)
	}
	if n := answered(cfg.Metrics); n != 0 {
		t.Fatalf("canceled sweep counted %d answers", n)
	}
}

// TestQueueResumeToleratesTornTail: a kill mid-append leaves a partial last
// line; resume drops it and re-runs that candidate.
func TestQueueResumeToleratesTornTail(t *testing.T) {
	ref := runSweep(t, testConfig(t, t.TempDir()))
	cfg := testConfig(t, t.TempDir())
	startWAL(t, cfg)
	// The second candidate was journaled; the kill tore the first one's row.
	appendWAL(t, cfg, rowLine(ref.Rows[1]), `{"machine":"TestMach","instr`)

	rep := resumeSweep(t, cfg, 1)
	if normalize(rep) != normalize(ref) {
		t.Fatalf("resumed report differs from an uninterrupted run:\n%s\nvs\n%s", normalize(rep), normalize(ref))
	}
	if cfg.Metrics.Total("discover.found") != 1 || answered(cfg.Metrics) != 1 {
		t.Fatalf("resume answered found=%d of %d, want only the torn candidate (%s)",
			cfg.Metrics.Total("discover.found"), answered(cfg.Metrics), ref.Rows[0].Key())
	}
}

// TestQueueResumeRejectsForeignRows: a WAL holding a row for a candidate
// this sweep does not have is a corrupted setup, not something to silently
// absorb — including a row in the older {"result": ...} envelope, which
// must be refused, not half-read.
func TestQueueResumeRejectsForeignRows(t *testing.T) {
	known, _ := json.Marshal(Result{Machine: "TestMach", Instruction: "tstblt", Language: "TestLang",
		Operation: "test move", Operator: "tstcpy", Outcome: "found"})
	foreign, _ := json.Marshal(Result{Machine: "TestMach", Instruction: "nosuch", Language: "TestLang",
		Operation: "test move", Operator: "tstcpy", Outcome: "found"})
	for name, row := range map[string]string{
		"unknown candidate": string(foreign),
		"result envelope":   `{"result":` + string(known) + `}`,
	} {
		cfg := testConfig(t, t.TempDir())
		startWAL(t, cfg)
		appendWAL(t, cfg, row+"\n")
		cfg.Resume = true
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "unknown candidate") {
			t.Fatalf("%s: resume: err = %v, want an unknown-candidate refusal", name, err)
		}
	}
}
