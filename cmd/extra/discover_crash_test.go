package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"extra/internal/batch"
	"extra/internal/discover"
)

// discoverFlags is the bounded sweep both runs share: small enough to finish
// in seconds, large enough that a kill -9 lands mid-flight. Every flag that
// feeds the config fingerprint must match between the victim and the
// reference, or the resume would be (correctly) rejected.
const discoverFlags = "-machines VAX-11 -operators Pascal -depth 3 -budget 2000 -rungs 2"

// normalizeDiscoverReport re-encodes a sweep report with per-run fields
// (durations, trace IDs) zeroed, so an interrupted-then-resumed sweep can be
// compared byte-for-byte against an uninterrupted one.
func normalizeDiscoverReport(t *testing.T, dir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatalf("reading report: %v", err)
	}
	var rep discover.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parsing report: %v", err)
	}
	for _, rows := range [][]discover.Result{rep.Rows, rep.Found} {
		for i := range rows {
			rows[i].DurationMS = 0
			rows[i].Trace = ""
		}
	}
	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// walResultKeys returns the candidate key of every row in a sweep WAL, in
// journal order.
func walResultKeys(t *testing.T, path string) []string {
	t.Helper()
	rows, _, err := batch.ReadJournal[discover.Result](path)
	if err != nil {
		t.Fatalf("reading WAL: %v", err)
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	return keys
}

// TestDiscoverKillDashNineResume is the sweep-durability acceptance test: a
// discovery run is SIGKILLed mid-flight, its WAL survives as a valid JSONL
// prefix, and a -resume run completes the sweep without re-proving any
// journaled candidate, producing a report byte-identical (modulo durations
// and trace IDs) to an uninterrupted run.
func TestDiscoverKillDashNineResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and full sweeps")
	}
	refDir := filepath.Join(t.TempDir(), "ref")
	dir := filepath.Join(t.TempDir(), "sweep")
	wal := filepath.Join(dir, "queue.jsonl")

	// The uninterrupted reference sweep, in-process.
	if err := runQuiet(t, strings.Fields("discover -dir "+refDir+" -jobs 2 "+discoverFlags)); err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	// The victim: single worker so results land one at a time, killed -9
	// once the WAL shows a completed candidate beyond the header (2 lines).
	p := startHelperBatch(t, "discover -dir "+dir+" -jobs 1 "+discoverFlags)
	midFlight := waitForJournal(p, wal, 2, 30*time.Second)
	if midFlight {
		if err := p.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
			t.Fatalf("kill -9: %v", err)
		}
		p.waitErr()
	}

	// The surviving WAL must be a readable prefix holding only rows that
	// actually completed.
	survivors := walResultKeys(t, wal)
	if midFlight {
		if len(survivors) == 0 {
			t.Fatal("no result rows survived the kill")
		}
		t.Logf("killed -9 with %d candidates journaled", len(survivors))
	}

	// Resume: only the missing candidates run. A journaled candidate must
	// not be re-proved, so the final WAL holds exactly one result row per
	// key and the survivors keep their original journal positions.
	if err := runQuiet(t, strings.Fields("discover -dir "+dir+" -jobs 2 -resume "+discoverFlags)); err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	final := walResultKeys(t, wal)
	seen := make(map[string]bool, len(final))
	for _, k := range final {
		if seen[k] {
			t.Errorf("candidate %s was re-proved on resume: two result rows in the WAL", k)
		}
		seen[k] = true
	}
	for i, k := range survivors {
		if i >= len(final) || final[i] != k {
			t.Errorf("resume disturbed journaled row %d: got %q, want %q", i, final[i], k)
		}
	}

	got, want := normalizeDiscoverReport(t, dir), normalizeDiscoverReport(t, refDir)
	if got != want {
		t.Errorf("resumed report differs from the uninterrupted run:\n--- resumed\n%s\n--- uninterrupted\n%s", got, want)
	}
}

// TestDiscoverResumeRejectsFlagDrift: resuming a sweep under different
// search flags would journal rows that mean something else; the config
// fingerprint in the WAL header must refuse it.
func TestDiscoverResumeRejectsFlagDrift(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	if err := runQuiet(t, strings.Fields("discover -dir "+dir+" -jobs 2 "+discoverFlags)); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	err := runQuiet(t, strings.Fields("discover -dir "+dir+" -jobs 2 -resume -each-timeout 7s "+discoverFlags))
	if err == nil {
		t.Fatal("resume with drifted flags succeeded; want a config-fingerprint rejection")
	}
	if !strings.Contains(err.Error(), "config") {
		t.Fatalf("rejection does not name the config fingerprint: %v", err)
	}
}
