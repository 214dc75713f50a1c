package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"extra/internal/obs"
	"extra/internal/proofs"
)

// runQuiet is run with the subcommand's standard output sent to the null
// device, so its reports do not bury the test log. Only os.Stdout is
// swapped, for the one call: the testing package keeps the stdout it
// started with, so a failing test's name and messages are still printed.
func runQuiet(t *testing.T, args []string) error {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() {
		os.Stdout = stdout
		devnull.Close()
	}()
	return run(args)
}

// TestCommandsRun smoke-tests every subcommand end to end (output goes to
// the test process's stdout; correctness of the underlying data is covered
// by the package tests — this guards the CLI wiring).
func TestCommandsRun(t *testing.T) {
	cases := [][]string{
		{"survey"},
		{"table2"},
		{"fig", "1"},
		{"fig", "2"},
		{"fig", "3"},
		{"fig", "4"},
		{"fig", "5"},
		{"analyze", "scasb/index"},
		{"binding", "mvc/sassign"},
		{"trace", "locc/indexc"},
		{"failures"},
		{"extensions"},
		{"xforms"},
		{"xforms", "loop"},
		{"desc", "scasb"},
		{"desc", "index"},
		{"help"},
		{"stats"},
		{"batch"},
		{"batch", "-jobs", "4", "-jsonl", "-"},
		{"batch", "-jobs", "2", "-validate", "3", "-json", "-"},
	}
	for _, args := range cases {
		if err := runQuiet(t, args); err != nil {
			t.Errorf("extra %v: %v", args, err)
		}
	}
}

func TestCommandErrors(t *testing.T) {
	// sweep builds a small discover command over a fresh directory, so a
	// row that is wrongly accepted runs a short sweep and reports no error
	// rather than tripping over an earlier row's journal.
	sweep := func(flags ...string) []string {
		return append(append([]string{"discover"}, flags...),
			"-dir", t.TempDir(), "-machines", "VAX-11", "-operators", "Pascal")
	}
	// serve is bounded by --timeout, so a wrongly accepted row drains and
	// reports no error instead of serving forever.
	serve := func(flags ...string) []string {
		return append(append([]string{"serve", "-addr", "127.0.0.1:0"}, flags...), "--timeout", "5s")
	}
	cases := [][]string{
		{}, // no command: usage goes to stderr and the exit code is nonzero
		{"bogus"},
		{"fig"},
		{"fig", "9"},
		{"analyze"},
		{"analyze", "nosuch/pair"},
		{"analyze", "malformed"},
		{"binding"},
		{"binding", "no/pair"},
		{"xforms", "nocategory"},
		{"desc", "nothing"},
		{"desc"},
		{"analyze", "scasb/index", "--trace"}, // missing file argument
		{"survey", "--trace", "x"},            // command does not run analyses
		{"stats", "-bogusflag"},
		{"batch", "-bogusflag"},
		{"batch", "-json", "-", "-jsonl", "-"}, // mutually exclusive report forms
		{"batch", "-jsonl"},                    // -jsonl now needs a file argument
		{"batch", "-retries", "1"},             // one run per analysis: no retry ladder
		{"batch", "-jobs", "-1"},
		{"batch", "-validate", "-1"},
		{"batch", "-each-timeout", "-1s"},
		{"batch", "-each-timeout", "1ns"}, // every analysis times out
		{"serve", "-bogusflag"},
		{"serve", "-addr"},             // missing value
		{"serve", "positional"},        // serve takes no positional args
		{"serve", "-addr", "nonsense"}, // no host:port shape
		{"serve", "-addr", "127.0.0.1:99999"},
		serve("-request-timeout", "-1s"),
		serve("-queue", "-1"),
		serve("-validate", "-1"),
		serve("-cache-entries", "-1"),
		sweep("-attempts", "2"), // one run per candidate: no attempt count
		sweep("-depth", "-1"),
		sweep("-budget", "0"),
		sweep("-rungs", "-5"),
		sweep("-jobs", "-1"),
		sweep("-each-timeout", "-1s"),
		// The sweep claims each candidate once: no leases, so no -lease-ttl.
		sweep("-lease-ttl", "1s"),
		// Faults come from real inputs: no flag arms a panicking candidate.
		sweep("-inject-panic", "locc/sassign"),
		// The search runs serially and has no collision-check flag.
		sweep("-search-workers", "2"),
		{"batch", "-check-hashes"},
		{"analyze", "-check-hashes", "scasb/index"},
		// The cache lives only as long as its process: no command reads or
		// writes a cache directory.
		{"analyze", "-cache-dir", t.TempDir(), "scasb/index"},
		sweep("-cache-dir", t.TempDir()),
		{"batch", "-cache-dir", t.TempDir()},
		serve("-cache-dir", t.TempDir()),
		{"gateway", "-workers", "3"},              // no shard gateway: an unknown command
		{"loadgen", "-bench"},                     // no go-bench lines: ci.sh reads the benchmarks' own output
		{"analyze", "scasb/index", "--timeout"},   // missing duration as final arg
		{"analyze", "scasb/index", "--timeout=0"}, // zero timeout is rejected
	}
	for _, args := range cases {
		if err := runQuiet(t, args); err == nil {
			t.Errorf("extra %v: expected an error", args)
		}
	}
}

// TestExtractTimeout pins the flag-extraction edge cases: the flag as the
// final argument with no value, duplicates (last one wins), the explicit
// zero, and every accepted spelling.
func TestExtractTimeout(t *testing.T) {
	cases := []struct {
		args     []string
		wantRest []string
		want     time.Duration
		wantErr  bool
	}{
		{args: nil, wantRest: nil, want: 0},
		{args: []string{"table2"}, wantRest: []string{"table2"}, want: 0},
		{args: []string{"table2", "--timeout", "30s"}, wantRest: []string{"table2"}, want: 30 * time.Second},
		{args: []string{"--timeout", "30s", "table2"}, wantRest: []string{"table2"}, want: 30 * time.Second},
		{args: []string{"table2", "-timeout", "2m"}, wantRest: []string{"table2"}, want: 2 * time.Minute},
		{args: []string{"table2", "--timeout=45s"}, wantRest: []string{"table2"}, want: 45 * time.Second},
		{args: []string{"table2", "-timeout=45s"}, wantRest: []string{"table2"}, want: 45 * time.Second},
		// The flag as the final argument with no value is an error, not a
		// silent drop.
		{args: []string{"table2", "--timeout"}, wantErr: true},
		{args: []string{"--timeout"}, wantErr: true},
		// Duplicate flags: the last occurrence wins.
		{args: []string{"--timeout", "5s", "table2", "--timeout", "7s"}, wantRest: []string{"table2"}, want: 7 * time.Second},
		{args: []string{"--timeout=5s", "--timeout=9s"}, wantRest: nil, want: 9 * time.Second},
		// Zero and negative durations are rejected: a zero deadline would
		// cancel every analysis before it starts.
		{args: []string{"--timeout=0"}, wantErr: true},
		{args: []string{"--timeout", "0s"}, wantErr: true},
		{args: []string{"--timeout", "-5s"}, wantErr: true},
		{args: []string{"--timeout", "bogus"}, wantErr: true},
		{args: []string{"--timeout="}, wantErr: true},
	}
	for _, tc := range cases {
		rest, d, err := extractTimeout(tc.args)
		if tc.wantErr {
			if err == nil {
				t.Errorf("extractTimeout(%q): expected an error, got rest=%q d=%v", tc.args, rest, d)
			}
			continue
		}
		if err != nil {
			t.Errorf("extractTimeout(%q): %v", tc.args, err)
			continue
		}
		if d != tc.want {
			t.Errorf("extractTimeout(%q): timeout %v, want %v", tc.args, d, tc.want)
		}
		if strings.Join(rest, " ") != strings.Join(tc.wantRest, " ") {
			t.Errorf("extractTimeout(%q): rest %q, want %q", tc.args, rest, tc.wantRest)
		}
	}
}

// TestTraceFlagWritesJSONL runs one analysis with --trace and checks the
// file holds one well-formed JSON event per line, covering every proof step.
func TestTraceFlagWritesJSONL(t *testing.T) {
	file := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := runQuiet(t, []string{"analyze", "scasb/index", "--trace", file}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	applies := 0
	for i, line := range lines {
		var ev struct {
			T     string         `json:"t"`
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i+1, err, line)
		}
		if ev.T == "" || ev.Name == "" {
			t.Fatalf("line %d lacks t/name fields: %s", i+1, line)
		}
		if ev.Name == "transform.apply" {
			applies++
			if ev.Attrs["xform"] == "" || ev.Attrs["outcome"] == "" {
				t.Errorf("transform.apply event lacks xform/outcome: %s", line)
			}
		}
	}
	// The scasb/index analysis takes 38 recorded steps (Table 2 reports 30
	// for the paper's coarser steps); every one must appear in the trace.
	if applies < 30 {
		t.Errorf("want >=30 transform.apply events (one per proof step), got %d", applies)
	}
}

// TestRunTraceJoinsRows: discover and synth with --trace write a non-empty
// event file in which every line carries the run's one trace ID, and the
// report rows carry the same ID, so a row joins against its events.
func TestRunTraceJoinsRows(t *testing.T) {
	dir := t.TempDir()
	sweep, synthJSON := filepath.Join(dir, "sweep"), filepath.Join(dir, "synth.json")
	for _, tc := range []struct {
		args   []string
		report string
	}{
		{[]string{"discover", "-dir", sweep, "-machines", "VAX-11", "-operators", "Pascal",
			"-depth", "2", "-budget", "200", "-rungs", "1"}, filepath.Join(sweep, "report.json")},
		{[]string{"synth", "-bindings", "Intel 8086/scasb/index", "-no-sweep", "-max-variants", "4",
			"-json", synthJSON}, synthJSON},
	} {
		file := filepath.Join(dir, tc.args[0]+".jsonl")
		if err := runQuiet(t, append(tc.args, "--trace", file)); err != nil {
			t.Fatalf("extra %v: %v", tc.args, err)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		ids := map[string]int{}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		for i, line := range lines {
			var ev struct {
				Trace string `json:"trace"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("%s: line %d is not JSON: %v\n%s", tc.args[0], i+1, err, line)
			}
			ids[ev.Trace]++
		}
		if len(ids) != 1 || ids[""] > 0 {
			t.Fatalf("%s: %d trace lines carry the IDs %v, want one run ID on every line", tc.args[0], len(lines), ids)
		}
		report, err := os.ReadFile(tc.report)
		if err != nil {
			t.Fatal(err)
		}
		rows := regexp.MustCompile(`"trace": *"([^"]*)"`).FindAllStringSubmatch(string(report), -1)
		if len(rows) == 0 {
			t.Fatalf("%s: the report carries no trace ID", tc.args[0])
		}
		for _, m := range rows {
			if ids[m[1]] == 0 {
				t.Errorf("%s: a report row carries trace %q, the events %v", tc.args[0], m[1], ids)
			}
		}
	}
}

// TestBatchJSONReport runs `extra batch -json FILE` and checks the document
// covers the whole proof catalog (Table 2 plus extensions) with ok rows —
// written atomically to the file, no stdout capture needed.
func TestBatchJSONReport(t *testing.T) {
	file := filepath.Join(t.TempDir(), "batch.json")
	if err := runQuiet(t, []string{"batch", "-jobs", "4", "-json", file}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Instruction string `json:"instruction"`
			Operator    string `json:"operator"`
			Outcome     string `json:"outcome"`
			Steps       int    `json:"steps"`
		} `json:"results"`
		Summary map[string]int `json:"summary"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("batch -json did not emit valid JSON: %v", err)
	}
	want := len(proofs.Table2()) + len(proofs.Extensions())
	if len(doc.Results) != want || doc.Summary["ok"] != want {
		t.Fatalf("report covers %d/%d analyses, summary %v", len(doc.Results), want, doc.Summary)
	}
	for _, row := range doc.Results {
		if row.Outcome != "ok" || row.Steps <= 0 {
			t.Errorf("%s/%s: outcome %s steps %d", row.Instruction, row.Operator, row.Outcome, row.Steps)
		}
	}
}

// TestStatsReportShape checks the report is valid JSON with deterministic
// ordering and that it covers per-transformation counts and per-analysis
// step counts for all eleven Table 2 analyses — the acceptance bar for the
// observability layer.
func TestStatsReportShape(t *testing.T) {
	prev := obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(prev)
	if err := statsRun(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := statsReport(&buf, "json"); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	var rep struct {
		Counters []struct {
			Metric string `json:"metric"`
			Label  string `json:"label"`
			Value  uint64 `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Metric string `json:"metric"`
			Label  string `json:"label"`
			Value  int64  `json:"value"`
		} `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	for i := 1; i < len(rep.Counters); i++ {
		a, b := rep.Counters[i-1], rep.Counters[i]
		if a.Metric > b.Metric || (a.Metric == b.Metric && a.Label >= b.Label) {
			t.Errorf("counters not sorted at %d: %v >= %v", i, a, b)
		}
	}
	applied := map[string]bool{}
	for _, c := range rep.Counters {
		if c.Metric == "transform.applied" && c.Value > 0 {
			applied[c.Label] = true
		}
	}
	if len(applied) < 10 {
		t.Errorf("want per-transformation applied counts for many transformations, got %d", len(applied))
	}
	steps := map[string]bool{}
	for _, g := range rep.Gauges {
		if g.Metric == "analysis.steps" && g.Value > 0 {
			steps[g.Label] = true
		}
	}
	for _, a := range proofs.Table2() {
		if label := a.Instruction + "/" + a.Operator; !steps[label] {
			t.Errorf("report lacks analysis.steps for %s", label)
		}
	}
	// A second report over the same registry must be byte-identical: the
	// ordering is part of the output contract.
	var again bytes.Buffer
	if err := statsReport(&again, "json"); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Error("two reports over the same registry differ; ordering is unstable")
	}
}
