package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"extra/internal/batch"
	"extra/internal/proofs"
)

// TestHelperBatch is not a test: re-exec'd by the crash tests, it runs the
// real CLI (signal handling included) so a kill hits a genuine batch run.
func TestHelperBatch(t *testing.T) {
	if os.Getenv("EXTRA_HELPER_BATCH") == "" {
		t.Skip("helper process entry point; driven by the crash tests")
	}
	if err := run(strings.Fields(os.Getenv("EXTRA_HELPER_ARGS"))); err != nil {
		fmt.Fprintln(os.Stderr, "extra:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// helperProc is a started helper with its exit funneled through one
// channel, so tests never race two Wait calls.
type helperProc struct {
	cmd  *exec.Cmd
	done chan error
}

// startHelperBatch launches this test binary as an `extra batch` process.
func startHelperBatch(t *testing.T, args string) *helperProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperBatch$", "-test.v=false")
	cmd.Env = append(os.Environ(),
		"EXTRA_HELPER_BATCH=1",
		"EXTRA_HELPER_ARGS="+args,
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &helperProc{cmd: cmd, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		p.waitErr()
	})
	return p
}

// waitErr blocks until the helper exits and returns its Wait error; the
// value is re-buffered so any number of callers may ask.
func (p *helperProc) waitErr() error {
	err := <-p.done
	p.done <- err
	return err
}

// exited reports (without consuming) whether the helper has exited.
func (p *helperProc) exited() bool {
	select {
	case err := <-p.done:
		p.done <- err
		return true
	default:
		return false
	}
}

// journalLines counts complete (newline-terminated) lines in the journal.
func journalLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return strings.Count(string(data), "\n")
}

// waitForJournal polls until the journal holds at least n complete rows or
// the process exits, reporting whether the threshold was reached while the
// run was still in flight.
func waitForJournal(p *helperProc, path string, n int, deadline time.Duration) bool {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if journalLines(path) >= n {
			return !p.exited()
		}
		if p.exited() {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// normalizeReport re-encodes a JSONL report with durations and per-run
// trace IDs zeroed, so two runs of the same catalog compare byte-identical
// modulo timing and run identity.
func normalizeReport(t *testing.T, path string) string {
	t.Helper()
	rows, _, err := batch.ReadJournal[batch.Result](path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	var sb strings.Builder
	for i := range rows {
		rows[i].DurationMS = 0
		rows[i].Trace = ""
		line, err := json.Marshal(&rows[i])
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestBatchKillDashNineResume is the crash-safety acceptance test: a batch
// run is SIGKILLed mid-flight, its journal survives as valid JSONL, and a
// -resume run completes the catalog with a final report byte-identical
// (modulo durations) to an uninterrupted run.
func TestBatchKillDashNineResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and full batch runs")
	}
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.jsonl")
	journal := filepath.Join(dir, "journal.jsonl")

	// The uninterrupted reference run, in-process.
	if err := runQuiet(t, []string{"batch", "-jobs", "2", "-validate", "2000", "-jsonl", ref}); err != nil {
		t.Fatalf("reference batch: %v", err)
	}

	// The victim: single worker so rows land one at a time, killed -9 once
	// a few rows are journaled.
	p := startHelperBatch(t, "batch -jobs 1 -validate 2000 -jsonl "+journal)
	midFlight := waitForJournal(p, journal, 3, 30*time.Second)
	if midFlight {
		if err := p.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
			t.Fatalf("kill -9: %v", err)
		}
		p.waitErr()
	}

	// The surviving journal must be a valid JSONL prefix with only
	// completed rows in it.
	rows, _, err := batch.ReadJournal[batch.Result](journal)
	if err != nil {
		t.Fatalf("journal after kill -9 is unreadable: %v", err)
	}
	want := len(proofs.Table2()) + len(proofs.Extensions())
	if midFlight {
		if len(rows) == 0 || len(rows) >= want {
			t.Fatalf("expected a partial journal after mid-flight kill, got %d/%d rows", len(rows), want)
		}
		t.Logf("killed -9 with %d/%d rows journaled", len(rows), want)
	}
	for _, r := range rows {
		if r.Outcome != "ok" {
			t.Errorf("journaled row %s has outcome %s (%s)", r.Pair(), r.Outcome, r.Error)
		}
	}

	// Resume against the same journal: only the missing rows run; the
	// journal is compacted into the canonical catalog-order report.
	if err := runQuiet(t, []string{"batch", "-jobs", "2", "-validate", "2000", "-jsonl", journal, "-resume", journal}); err != nil {
		t.Fatalf("resumed batch: %v", err)
	}
	got, wantReport := normalizeReport(t, journal), normalizeReport(t, ref)
	if got != wantReport {
		t.Errorf("resumed report differs from the uninterrupted run:\n--- resumed\n%s--- uninterrupted\n%s", got, wantReport)
	}
	if final, _, err := batch.ReadJournal[batch.Result](journal); err != nil || len(final) != want {
		t.Errorf("final report has %d rows (%v), want %d", len(final), err, want)
	}
}

// TestBatchSIGINTLeavesValidJournal sends SIGINT to a running batch: the
// process must exit through the signal-cancelled context (nonzero, since
// rows were cut short) and the journal must remain a valid JSONL prefix
// holding only rows that actually completed.
func TestBatchSIGINTLeavesValidJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and full batch runs")
	}
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	p := startHelperBatch(t, "batch -jobs 1 -validate 2000 -jsonl "+journal)
	midFlight := waitForJournal(p, journal, 2, 30*time.Second)
	if !midFlight {
		// The run outraced the poll; nothing to interrupt, but the journal
		// contract still holds below.
		t.Log("batch finished before SIGINT could land")
	} else {
		if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatalf("SIGINT: %v", err)
		}
		if err := p.waitErr(); err == nil {
			t.Error("SIGINT-cancelled batch exited 0; want a nonzero exit for an incomplete run")
		}
	}
	rows, _, err := batch.ReadJournal[batch.Result](journal)
	if err != nil {
		t.Fatalf("journal after SIGINT is unreadable: %v", err)
	}
	if midFlight && len(rows) == 0 {
		t.Fatal("no rows survived in the journal")
	}
	for _, r := range rows {
		if r.Outcome == "canceled" {
			t.Errorf("journal holds a canceled row for %s; canceled rows must not be journaled", r.Pair())
		}
	}
}

// serveJournal runs `extra serve -validate VALIDATE -journal PATH` in
// process, sends it one /analyze request per query (such as
// "pair=scasb/index"), each of which must answer status, and drains it.
func serveJournal(t *testing.T, path, validate string, status int, queries ...string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w // serve announces its address on stdout
	defer func() { os.Stdout = stdout }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- serveCmd(ctx, "", []string{"-addr", "127.0.0.1:0", "-validate", validate, "-journal", path})
		w.Close()
	}()
	out := bufio.NewReader(r)
	line, err := out.ReadString('\n')
	if !strings.HasPrefix(line, "serving on ") {
		t.Fatalf("serve did not start: %q %v %v", line, err, <-done)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "serving on "))
	for _, q := range queries {
		resp, err := http.Post("http://"+addr+"/analyze?"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("/analyze?%s: %s, want %d", q, resp.Status, status)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	io.Copy(io.Discard, out)
}

// TestResumeFromServeJournal: a serve journal carries the batch run-config
// header of serve's own -validate. A batch -resume under another -validate
// refuses it rather than report its unvalidated rows as validated; under
// the same flags it resumes, and the compacted report equals a fresh
// run's after normalization.
func TestResumeFromServeJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("serves and runs full batch runs")
	}
	dir := t.TempDir()
	j0, j50 := filepath.Join(dir, "serve0.jsonl"), filepath.Join(dir, "serve50.jsonl")
	serveJournal(t, j0, "0", http.StatusOK, "pair=movsb/sassign", "pair=scasb/index")
	serveJournal(t, j50, "50", http.StatusOK, "pair=movsb/sassign", "pair=scasb/index")

	refused := filepath.Join(dir, "refused.jsonl")
	err := runQuiet(t, strings.Fields("batch -jobs 2 -validate 50 -resume "+j0+" -jsonl "+refused))
	if err == nil || !strings.Contains(err.Error(), "config") {
		t.Fatalf("-validate 50 resume from a -validate 0 serve journal: err = %v, want a config refusal", err)
	}

	fresh, resumed := filepath.Join(dir, "fresh.jsonl"), filepath.Join(dir, "resumed.jsonl")
	if err := runQuiet(t, strings.Fields("batch -jobs 2 -validate 50 -jsonl "+fresh)); err != nil {
		t.Fatalf("fresh batch: %v", err)
	}
	if err := runQuiet(t, strings.Fields("batch -jobs 2 -validate 50 -resume "+j50+" -jsonl "+resumed)); err != nil {
		t.Fatalf("batch resumed from a serve journal: %v", err)
	}
	normalize := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = regexp.MustCompile(`"duration_ms": *[0-9]*`).ReplaceAll(data, []byte(`"duration_ms": 0`))
		return string(regexp.MustCompile(`"trace": *"[^"]*"`).ReplaceAll(data, []byte(`"trace": ""`)))
	}
	// The served rows are the resumed report's rows: they keep serve's
	// trace IDs.
	served, config, err := batch.ReadJournal[batch.Result](j50)
	if err != nil || len(served) != 2 || config != batch.RunConfig(50, append(proofs.Table2(), proofs.Extensions()...)) {
		t.Fatalf("serve journal: %d rows under config %q (%v), want 2 under batch's -validate 50 config", len(served), config, err)
	}
	report, _, err := batch.ReadJournal[batch.Result](resumed)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range served {
		for _, r := range report {
			if r.Key() == s.Key() && r.Trace != s.Trace {
				t.Errorf("%s: report row has trace %q, the served row %q: it was not resumed", s.Pair(), r.Trace, s.Trace)
			}
		}
	}
	if got, want := normalize(resumed), normalize(fresh); got != want {
		t.Errorf("report resumed from a serve journal differs from a fresh run:\n--- resumed\n%s--- fresh\n%s", got, want)
	}
}

// TestResumeReRunsServeTimeout: a request's ?timeout= is not part of a
// journal's config, so the "timeout" row it leaves in a serve journal
// must not stand for its pair in a batch resumed from that journal. The
// resumed batch re-runs the pair, reports 17 ok rows and exits 0.
func TestResumeReRunsServeTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("serves and runs a full batch run")
	}
	dir := t.TempDir()
	served, report := filepath.Join(dir, "serve.jsonl"), filepath.Join(dir, "out.jsonl")
	serveJournal(t, served, "0", http.StatusGatewayTimeout, "pair=mvc/sassign&timeout=1ns")
	rows, _, err := batch.ReadJournal[batch.Result](served)
	if err != nil || len(rows) != 1 || rows[0].Outcome != "timeout" {
		t.Fatalf("serve journal: %v (%v), want one timeout row", rows, err)
	}
	if err := runQuiet(t, strings.Fields("batch -jobs 2 -resume "+served+" -jsonl "+report)); err != nil {
		t.Fatalf("batch resumed from a serve journal with a timeout row: %v", err)
	}
	rows, _, err = batch.ReadJournal[batch.Result](report)
	if err != nil {
		t.Fatal(err)
	}
	if got := batch.Summary(rows); len(rows) != 17 || got["ok"] != 17 {
		t.Errorf("resumed report: %d rows, %v; want 17 ok", len(rows), got)
	}
}
