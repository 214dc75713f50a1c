package discover

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"extra/internal/batch"
	"extra/internal/cache"
	"extra/internal/core"
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
		Attempts:   2,
		LeaseTTL:   time.Minute,
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
}

// TestSweepRowDuration pins duration_ms on engine-run rows: a candidate
// whose every attempt is cut by EachTimeout is quarantined after Attempts
// runs, so its row must record at least Attempts × EachTimeout.
func TestSweepRowDuration(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	// A real unproven pair under a budget no attempt can spend in time.
	cfg.Candidates = Enumerate([]string{"VAX-11"}, []string{"Pascal"})[:1]
	cfg.Ladder = []core.AutoRung{{MaxDepth: 12, Budget: 1 << 30}}
	cfg.EachTimeout = 30 * time.Millisecond
	rep := runSweep(t, cfg)
	if len(rep.Rows) != 1 || rep.Rows[0].Outcome != "poison" || rep.Rows[0].Class != "timeout" {
		t.Fatalf("rows: %+v, want one poison row of class timeout", rep.Rows)
	}
	floor := int64(cfg.Attempts) * cfg.EachTimeout.Milliseconds()
	if got := rep.Rows[0].DurationMS; got < floor {
		t.Fatalf("duration_ms = %d, want >= %d (%d attempts of %v)", got, floor, cfg.Attempts, cfg.EachTimeout)
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
	if !strings.Contains(row.Error, "quarantined after 2 faulting attempts") {
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

func TestSweepResumeMatchesUninterrupted(t *testing.T) {
	// Reference: an uninterrupted run.
	refCfg := testConfig(t, t.TempDir())
	ref := runSweep(t, refCfg)

	// Interrupted: complete the first candidate "in a previous process",
	// then resume and finish.
	cfg := testConfig(t, t.TempDir())
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	l, err := s.q.Claim(context.Background(), 1)
	if err != nil || l == nil {
		t.Fatalf("Claim: %v %v", l, err)
	}
	prior := ref.Rows[0]
	if prior.Key() != l.Cand.Key() {
		t.Fatalf("claim order: got %s, want %s", l.Cand.Key(), prior.Key())
	}
	if _, err := s.q.Complete(l, prior); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	// Also journal a dangling lease on the second candidate — the kill
	// caught that worker mid-analysis.
	if l2, err := s.q.Claim(context.Background(), 2); err != nil || l2 == nil {
		t.Fatalf("Claim 2: %v %v", l2, err)
	}
	s.Close()

	cfg.Resume = true
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New(resume): %v", err)
	}
	if s2.Resumed() != 1 {
		t.Fatalf("Resumed: %d, want 1", s2.Resumed())
	}
	rep, err := s2.Run(context.Background())
	if err != nil {
		t.Fatalf("Run(resume): %v", err)
	}
	if normalize(rep) != normalize(ref) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%s\nvs\n%s", normalize(rep), normalize(ref))
	}
	if cfg.Metrics.Total("discover.resumed") != 1 {
		t.Fatalf("discover.resumed = %d", cfg.Metrics.Total("discover.resumed"))
	}
	if cfg.Metrics.Total("discover.expired") != 1 {
		t.Fatalf("discover.expired = %d (the dangling lease)", cfg.Metrics.Total("discover.expired"))
	}
	// The resumed run must not have re-analyzed the carried-over candidate:
	// its WAL holds exactly one result row for it.
	lines, _, err := batch.ReadJournalLines(filepath.Join(cfg.Dir, "queue.jsonl"))
	if err != nil {
		t.Fatalf("ReadJournalLines: %v", err)
	}
	results := 0
	for _, line := range lines {
		var row walRow
		if json.Unmarshal(line, &row) == nil && row.Result != nil && row.Result.Key() == prior.Key() {
			results++
		}
	}
	if results != 1 {
		t.Fatalf("%d result rows for the resumed candidate, want 1 (no re-proving)", results)
	}
}

func TestSweepResumeRejectsConfigMismatch(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	runSweep(t, cfg)
	cfg.Resume = true
	cfg.Attempts = 5 // a different search configuration
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

func TestSweepCacheSkipsAcrossRuns(t *testing.T) {
	cacheDir := t.TempDir()
	mkCache := func(m *obs.Registry) *cache.Cache {
		c, err := cache.New(cache.Config{Dir: cacheDir, KeepFailures: true, Metrics: m})
		if err != nil {
			t.Fatalf("cache.New: %v", err)
		}
		return c
	}
	cold := testConfig(t, t.TempDir())
	cold.Cache = mkCache(cold.Metrics)
	coldRep := runSweep(t, cold)
	if n := cold.Metrics.Total("discover.cached"); n != 0 {
		t.Fatalf("cold run served %d rows from cache", n)
	}

	warm := testConfig(t, t.TempDir())
	warm.Cache = mkCache(warm.Metrics)
	warmRep := runSweep(t, warm)
	if n := warm.Metrics.Total("discover.cached"); n != 2 {
		t.Fatalf("warm run served %d rows from cache, want 2", n)
	}
	if normalize(warmRep) != normalize(coldRep) {
		t.Fatal("warm report differs from cold report")
	}

	// A different search configuration must not be served stale rows: the
	// salt partitions the keyspace.
	other := testConfig(t, t.TempDir())
	other.Attempts = 5
	other.Cache = mkCache(other.Metrics)
	runSweep(t, other)
	if n := other.Metrics.Total("discover.cached"); n != 0 {
		t.Fatalf("differently configured run served %d stale cache rows", n)
	}
}
