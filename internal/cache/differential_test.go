package cache

import (
	"bytes"
	"context"
	"testing"

	"extra/internal/batch"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// TestWarmVsColdDifferential is the cache's acceptance test: over the full
// proof catalog (Table 2 plus the extensions), a warm run served entirely
// from the persistent tier produces a report byte-identical to the cold run
// that populated it, modulo duration_ms.
func TestWarmVsColdDifferential(t *testing.T) {
	dir := t.TempDir()
	catalog := append(proofs.Table2(), proofs.Extensions()...)
	const validate = 3

	keys := map[string]Key{}
	for _, a := range catalog {
		k, ok := KeyFor(a, validate)
		if !ok {
			t.Fatalf("%s/%s: catalog analysis not cacheable", a.Instruction, a.Operator)
		}
		keys[batch.AnalysisKey(a)] = k
	}

	// Cold: an empty cache directory, every row executes and is written
	// back through the runner's OnResult hook.
	coldMetrics := obs.NewRegistry()
	cold, err := New(Config{Dir: dir, Metrics: coldMetrics})
	if err != nil {
		t.Fatal(err)
	}
	coldRunner := &batch.Runner{
		Jobs: 4, Validate: validate, Metrics: coldMetrics,
		OnResult: func(res batch.Result) { cold.Put(keys[res.Key()], res) },
	}
	coldResults := coldRunner.Run(context.Background(), catalog)
	for i := range coldResults {
		if coldResults[i].Outcome != "ok" {
			t.Fatalf("cold %s: %s (%s)", coldResults[i].Pair(), coldResults[i].Outcome, coldResults[i].Error)
		}
	}

	// Warm: a fresh Cache over the same directory (the restart case). Every
	// catalog row must be a hit; the runner's Completed skip set serves the
	// whole report without one engine run.
	warmMetrics := obs.NewRegistry()
	warm, err := New(Config{Dir: dir, Metrics: warmMetrics})
	if err != nil {
		t.Fatal(err)
	}
	completed := map[string]batch.Result{}
	for ak, k := range keys {
		row, ok := warm.Get(k)
		if !ok {
			t.Fatalf("%s: cold run did not persist this row", ak)
		}
		completed[ak] = row
	}
	if hits := warmMetrics.Counter("cache.hit", "disk"); hits != uint64(len(catalog)) {
		t.Errorf("warm run: %d disk hits, want %d", hits, len(catalog))
	}
	warmRunner := &batch.Runner{
		Jobs: 4, Validate: validate, Metrics: warmMetrics, Completed: completed,
		OnResult: func(res batch.Result) {
			t.Errorf("warm run executed %s; every row should have been skipped", res.Pair())
		},
	}
	warmResults := warmRunner.Run(context.Background(), catalog)

	// Byte-identical modulo duration_ms: zero the one run-dependent field on
	// both sides and compare the full serialized reports.
	normalize := func(rows []batch.Result) []byte {
		cp := append([]batch.Result(nil), rows...)
		for i := range cp {
			cp[i].DurationMS = 0
		}
		var buf bytes.Buffer
		if err := batch.WriteJSON(&buf, cp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	coldDoc, warmDoc := normalize(coldResults), normalize(warmResults)
	if !bytes.Equal(coldDoc, warmDoc) {
		t.Errorf("warm report differs from cold modulo duration_ms:\ncold: %s\nwarm: %s", coldDoc, warmDoc)
	}
}
