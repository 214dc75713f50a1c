package batch

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extra/internal/core"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// TestJournalRoundTrip: appended rows come back from ReadJournal verbatim.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Machine: "Intel 8086", Instruction: "scasb", Language: "Rigel", Operation: "string search", Operator: "index", Outcome: "ok", Steps: 38, Elementary: 49, DurationMS: 3},
		{Machine: "VAX-11", Instruction: "locc", Language: "CLU", Operation: "string search", Operator: "indexc", Outcome: "timeout", Error: "deadline", DurationMS: 100},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadJournal[Result](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows back, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestJournalTornTail: a journal whose final line was cut mid-write (the
// kill -9 case) yields every complete row and no error.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	complete := `{"machine":"m","instruction":"i","language":"l","operation":"o","operator":"p","outcome":"ok","duration_ms":1}` + "\n"
	torn := `{"machine":"m","instruction":"i2","language":"l","opera`
	if err := os.WriteFile(path, []byte(complete+complete+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, _, err := ReadJournal[Result](path)
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows from a journal with 2 complete lines, want 2", len(rows))
	}
}

// TestJournalOpenTrimsTornTail: a journal reopened after a crash mid-write
// drops the torn last line, so the next row starts a line of its own and
// every row appended after the reopen stays readable.
func TestJournalOpenTrimsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	row := Result{Machine: "m", Instruction: "i", Language: "l", Operation: "o", Operator: "p", Outcome: "ok"}
	complete := `{"machine":"m","instruction":"i","language":"l","operation":"o","operator":"p","outcome":"ok","duration_ms":0}` + "\n"
	torn := `{"machine":"m","instruction":"i2","language":"l","opera`
	if err := os.WriteFile(path, append(headerLine("cfg"), complete+torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteHeader("cfg"); err != nil {
		t.Fatal(err)
	}
	for _, ins := range []string{"j", "k"} {
		r := row
		r.Instruction = ins
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rows, config, err := ReadJournal[Result](path)
	if err != nil {
		t.Fatal(err)
	}
	if config != "cfg" {
		t.Errorf("config %q after reopen, want the header's %q", config, "cfg")
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.Instruction)
	}
	if strings.Join(got, ",") != "i,j,k" {
		t.Fatalf("rows %v after appending to a torn journal, want [i j k]", got)
	}
}

// TestJournalMissingFile: resuming a run that never started is an empty
// journal, not an error.
func TestJournalMissingFile(t *testing.T) {
	rows, _, err := ReadJournal[Result](filepath.Join(t.TempDir(), "never-written.jsonl"))
	if err != nil || rows != nil {
		t.Fatalf("missing journal: rows=%v err=%v, want nil/nil", rows, err)
	}
}

// TestCompletedFrom: last row per key wins, and canceled and timed-out
// rows are dropped — they must re-run on resume.
func TestCompletedFrom(t *testing.T) {
	a := Result{Machine: "m", Instruction: "i", Language: "l", Operation: "o", Operator: "p", Outcome: "panic"}
	aAgain := a
	aAgain.Outcome = "ok"
	b := Result{Machine: "m", Instruction: "j", Language: "l", Operation: "o", Operator: "q", Outcome: "ok"}
	bCanceled := b
	bCanceled.Outcome = "canceled"
	c := Result{Machine: "m", Instruction: "k", Language: "l", Operation: "o", Operator: "r", Outcome: "ok"}
	cTimeout := c
	cTimeout.Outcome = "timeout"
	done := CompletedFrom([]Result{a, b, c, aAgain, bCanceled, cTimeout})
	if len(done) != 1 {
		t.Fatalf("%d completed keys, want 1 (canceled and timeout dropped, duplicate collapsed): %v", len(done), done)
	}
	if got := done[a.Key()]; got.Outcome != "ok" {
		t.Errorf("key %s: outcome %s, want the later row to win", a.Key(), got.Outcome)
	}
}

// TestWriteFileAtomic: the write lands complete, a failing writer leaves
// the previous content untouched, and no temp files are left behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "first complete document")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage that must never land")
		return fmt.Errorf("injected mid-write failure")
	}); err == nil {
		t.Fatal("failing write must surface its error")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "first complete document" {
		t.Errorf("failed atomic write clobbered the target: %q", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s after failed write", e.Name())
		}
	}
}

// TestJournalRewriteCompacts: Rewrite replaces a completion-order journal
// with duplicates by the canonical catalog-order report.
func TestJournalRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	first := Result{Machine: "m", Instruction: "i", Language: "l", Operation: "o", Operator: "p", Outcome: "panic"}
	retried := first
	retried.Outcome = "ok"
	other := Result{Machine: "m", Instruction: "j", Language: "l", Operation: "o", Operator: "q", Outcome: "ok"}
	for _, r := range []Result{other, first, retried} { // completion order
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	canonical := []Result{retried, other} // catalog order
	if err := j.Rewrite(canonical); err != nil {
		t.Fatal(err)
	}
	rows, _, err := ReadJournal[Result](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0] != canonical[0] || rows[1] != canonical[1] {
		t.Fatalf("rewritten journal %+v, want canonical %+v", rows, canonical)
	}
}

// TestJournalRewriteKeepsHeader: a finished journal keeps its config
// fingerprint as line 1, so resuming it under different flags is still
// refused while the matching flags are still accepted.
func TestJournalRewriteKeepsHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigDigest("validate=50")
	if err := j.WriteHeader(cfg); err != nil {
		t.Fatal(err)
	}
	row := Result{Machine: "m", Instruction: "i", Language: "l", Operation: "o", Operator: "p", Outcome: "ok", Validated: 50}
	if err := j.Append(row); err != nil {
		t.Fatal(err)
	}
	if err := j.Rewrite([]Result{row}); err != nil {
		t.Fatal(err)
	}
	rows, got, err := ReadJournal[Result](path)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg || len(rows) != 1 || rows[0] != row {
		t.Fatalf("rewritten journal: config %q rows %+v, want config %q and the one row", got, rows, cfg)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.WriteHeader(ConfigDigest("validate=7")); err == nil || !strings.Contains(err.Error(), cfg) {
		t.Fatalf("resume of a finished journal under different flags: err = %v, want a refusal naming %s", err, cfg)
	}
	if err := j2.WriteHeader(cfg); err != nil {
		t.Fatalf("resume of a finished journal under matching flags: %v", err)
	}
}

// TestRunnerCompletedSkips: rows in the Completed set never execute — their
// scripts would panic if they did — and their journaled results are carried
// into the report.
func TestRunnerCompletedSkips(t *testing.T) {
	mustNotRun := proofs.Movc3PC2()
	mustNotRun.Script = func(s *core.Session) error { panic("resumed row executed anyway") }
	live := proofs.LoccRigel()
	cat := []*proofs.Analysis{mustNotRun, live}
	journaled := Result{
		Machine: mustNotRun.Machine, Instruction: mustNotRun.Instruction,
		Language: mustNotRun.Language, Operation: mustNotRun.Operation,
		Operator: mustNotRun.Operator, Outcome: "ok", Steps: 4, Elementary: 4, DurationMS: 7,
	}
	m := obs.NewRegistry()
	var reported []Result
	r := &Runner{
		Jobs: 2, Metrics: m,
		Completed: map[string]Result{journaled.Key(): journaled},
		OnResult:  func(res Result) { reported = append(reported, res) },
	}
	results := r.Run(context.Background(), cat)
	if results[0] != journaled {
		t.Errorf("skipped row %+v, want the journaled result carried through", results[0])
	}
	if results[1].Outcome != "ok" {
		t.Errorf("live row outcome %s (%s), want ok", results[1].Outcome, results[1].Error)
	}
	if got := m.Counter("batch.skipped", journaled.Pair()); got != 1 {
		t.Errorf("batch.skipped = %d, want 1", got)
	}
	if len(reported) != 1 || reported[0].Pair() != results[1].Pair() {
		t.Errorf("OnResult saw %d rows (%v), want only the freshly-run row", len(reported), reported)
	}
}

// TestJournalHeaderRoundTrip: WriteHeader stamps the config fingerprint,
// ReadJournal surfaces it and skips it, and the data rows are unaffected.
func TestJournalHeaderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigDigest("batch", "validate=8")
	if err := j.WriteHeader(cfg); err != nil {
		t.Fatal(err)
	}
	row := Result{Machine: "m", Instruction: "i", Language: "l", Operation: "o", Operator: "p", Outcome: "ok"}
	if err := j.Append(row); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// The header must be skipped, not decoded as an empty row.
	rows, got, err := ReadJournal[Result](path)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("config %q back, want %q", got, cfg)
	}
	if len(rows) != 1 || rows[0] != row {
		t.Fatalf("rows %+v, want the one appended row", rows)
	}
}

// TestJournalHeaderMismatch: re-opening a journal under a different
// configuration is refused with an explanation, not silently mixed.
func TestJournalHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteHeader(ConfigDigest("validate=8")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	err = j2.WriteHeader(ConfigDigest("validate=16"))
	if err == nil || !strings.Contains(err.Error(), "config") {
		t.Fatalf("mismatched header accepted: %v", err)
	}
	// The matching config is still accepted (idempotent re-open).
	if err := j2.WriteHeader(ConfigDigest("validate=8")); err != nil {
		t.Fatalf("matching header refused: %v", err)
	}
}

// TestJournalLegacyHeaderless: a journal with rows but no header reads
// back with an empty config and all its rows, but nothing may resume from
// it or append to it: nothing says what configuration its rows ran under.
func TestJournalLegacyHeaderless(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.jsonl")
	line := `{"machine":"m","instruction":"i","language":"l","operation":"o","operator":"p","outcome":"ok","duration_ms":1}` + "\n"
	if err := os.WriteFile(path, []byte(line+line), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, cfg, err := ReadJournal[Result](path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != "" {
		t.Fatalf("legacy journal produced config %q, want empty", cfg)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if _, err := ResumeJournal[Result](path, ConfigDigest("anything")); err == nil || !strings.Contains(err.Error(), "no config header") {
		t.Errorf("resume from a headerless journal: err = %v, want a refusal", err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.WriteHeader(ConfigDigest("anything")); err == nil || !strings.Contains(err.Error(), "no config header") {
		t.Errorf("WriteHeader on a headerless journal: err = %v, want a refusal", err)
	}
	// A missing journal has no rows to misread: it is a fresh start.
	if rows, err := ResumeJournal[Result](filepath.Join(t.TempDir(), "none.jsonl"), "cfg"); err != nil || len(rows) != 0 {
		t.Errorf("resume from a missing journal: %d rows, err %v", len(rows), err)
	}
}

// TestJournalAppendAny: Append takes any row shape under the journal's
// fsync-per-line discipline, and ReadJournal decodes it back into that
// shape; a complete line that does not decode is an error, not a torn tail.
func TestJournalAppendAny(t *testing.T) {
	path := filepath.Join(t.TempDir(), "any.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteHeader(ConfigDigest("x")); err != nil {
		t.Fatal(err)
	}
	type custom struct {
		Kind string `json:"kind"`
		N    int    `json:"n"`
	}
	if err := j.Append(custom{Kind: "probe", N: 7}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	rows, cfg, err := ReadJournal[custom](path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != ConfigDigest("x") {
		t.Fatalf("config %q", cfg)
	}
	if len(rows) != 1 || rows[0] != (custom{Kind: "probe", N: 7}) {
		t.Fatalf("rows: %+v", rows)
	}
	type mismatched struct {
		Kind int `json:"kind"`
	}
	if _, _, err := ReadJournal[mismatched](path); err == nil {
		t.Fatal("a complete row that does not decode was accepted")
	}
}

// TestConfigDigestStability: the digest is deterministic, order-sensitive,
// and collision-averse for the empty/boundary cases that matter.
func TestConfigDigestStability(t *testing.T) {
	if ConfigDigest("a", "b") != ConfigDigest("a", "b") {
		t.Fatal("digest is not deterministic")
	}
	if ConfigDigest("a", "b") == ConfigDigest("b", "a") {
		t.Fatal("digest ignores order")
	}
	if ConfigDigest("ab") == ConfigDigest("a", "b") {
		t.Fatal("digest ignores part boundaries")
	}
}
