package discover

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"extra/internal/batch"
)

// Result is one answered candidate in the WAL and the report. Every field
// except DurationMS and Trace is deterministic for a fixed configuration —
// the property the kill/resume differential tests diff on.
type Result struct {
	Machine     string `json:"machine"`
	Instruction string `json:"instruction"`
	Language    string `json:"language"`
	Operation   string `json:"operation"`
	Operator    string `json:"operator"`
	// Outcome: "found" (the auto-search proved the pair), "failed" (the
	// ladder's budget ran dry — a clean negative), "poison" (quarantined
	// on a fault). "canceled" rows are never journaled.
	Outcome string `json:"outcome"`
	// Class is fault.Classify of the terminal error ("ok" for found rows;
	// the underlying fault class — "panic", "timeout" — for poison rows).
	Class string `json:"class,omitempty"`
	Error string `json:"error,omitempty"`
	// Steps and Elementary are the winning search path's transformation
	// counts (found rows only).
	Steps      int `json:"steps,omitempty"`
	Elementary int `json:"elementary,omitempty"`
	// CyclesExotic/CyclesLoop/SavingsCycles compare the simulated cost of
	// a representative workload compiled with the discovered binding
	// injected versus the decomposed primitive loop. SavingsNote explains
	// a 0 when the comparison could not run (no simulator, no emitter).
	CyclesExotic  uint64 `json:"cycles_exotic,omitempty"`
	CyclesLoop    uint64 `json:"cycles_loop,omitempty"`
	SavingsCycles int64  `json:"savings_cycles,omitempty"`
	SavingsNote   string `json:"savings_note,omitempty"`
	DurationMS    int64  `json:"duration_ms"`
	Trace         string `json:"trace,omitempty"`
}

// Key matches Candidate.Key for the same pair.
func (r Result) Key() string {
	return strings.Join([]string{r.Machine, r.Instruction, r.Language, r.Operation, r.Operator}, "|")
}

// Pair is the row's instruction/operator label.
func (r Result) Pair() string { return r.Instruction + "/" + r.Operator }

// Report is the sweep's product: every answered candidate in candidate
// order, plus the found rows ranked by simulated cycle savings.
type Report struct {
	// Config is the run-configuration fingerprint (WAL header digest).
	Config string `json:"config"`
	// Candidates is the work-list size; equals len(Rows) for a completed
	// sweep.
	Candidates int `json:"candidates"`
	// Outcomes counts rows per outcome.
	Outcomes map[string]int `json:"outcomes"`
	// Found ranks the newly discovered bindings by savings (descending),
	// ties broken by candidate key.
	Found []Result `json:"found"`
	// Rows lists every answered candidate in candidate order.
	Rows []Result `json:"rows"`
}

func buildReport(config string, candidates int, rows []Result) *Report {
	rep := &Report{
		Config:     config,
		Candidates: candidates,
		Outcomes:   map[string]int{},
		Rows:       rows,
	}
	for _, r := range rows {
		rep.Outcomes[r.Outcome]++
		if r.Outcome == "found" {
			rep.Found = append(rep.Found, r)
		}
	}
	sort.SliceStable(rep.Found, func(i, j int) bool {
		if rep.Found[i].SavingsCycles != rep.Found[j].SavingsCycles {
			return rep.Found[i].SavingsCycles > rep.Found[j].SavingsCycles
		}
		return rep.Found[i].Key() < rep.Found[j].Key()
	})
	return rep
}

// Write persists the report atomically as indented JSON.
func (r *Report) Write(path string) error {
	return batch.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	})
}

// Render writes the human-readable summary: outcome counts and the ranked
// found table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "Discovery sweep: %d candidates", r.Candidates)
	for _, k := range []string{"found", "failed", "poison"} {
		if n := r.Outcomes[k]; n > 0 {
			fmt.Fprintf(w, ", %d %s", n, k)
		}
	}
	fmt.Fprintln(w)
	if len(r.Found) == 0 {
		fmt.Fprintln(w, "No new bindings: every unproven pair needs insight-bearing steps beyond the bounded auto-search.")
		return
	}
	fmt.Fprintln(w, "\nNewly discovered bindings, ranked by simulated cycle savings:")
	fmt.Fprintf(w, "  %-14s %-12s %-10s %-12s %6s %10s %10s %9s\n",
		"machine", "instruction", "language", "operation", "steps", "exotic", "loop", "savings")
	for _, f := range r.Found {
		note := ""
		if f.SavingsNote != "" {
			note = "  (" + f.SavingsNote + ")"
		}
		fmt.Fprintf(w, "  %-14s %-12s %-10s %-12s %6d %10d %10d %9d%s\n",
			f.Machine, f.Instruction, f.Language, f.Operation, f.Steps,
			f.CyclesExotic, f.CyclesLoop, f.SavingsCycles, note)
	}
}
