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
// proof catalog (Table 2 plus the extensions), a warm report served
// entirely from the cache is byte-identical to the cold run that populated
// it, modulo duration_ms.
func TestWarmVsColdDifferential(t *testing.T) {
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

	// Cold: an empty cache, every row executes and is written back through
	// the runner's OnResult hook.
	m := obs.NewRegistry()
	c, err := New(Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	coldRunner := &batch.Runner{
		Jobs: 4, Validate: validate, Metrics: m,
		OnResult: func(res batch.Result) { c.Put(keys[res.Key()], res) },
	}
	coldResults := coldRunner.Run(context.Background(), catalog)
	for i := range coldResults {
		if coldResults[i].Outcome != "ok" {
			t.Fatalf("cold %s: %s (%s)", coldResults[i].Pair(), coldResults[i].Outcome, coldResults[i].Error)
		}
	}

	// Warm: every catalog row must be a hit, served without an engine run.
	warmResults := make([]batch.Result, len(catalog))
	for i, a := range catalog {
		row, out, err := c.Do(context.Background(), keys[batch.AnalysisKey(a)], func() (batch.Result, bool) {
			t.Errorf("warm run executed %s/%s; every row should have been a hit", a.Instruction, a.Operator)
			return batch.Result{}, false
		})
		if err != nil || out != OutcomeHitMem {
			t.Fatalf("%s/%s: warm outcome %v, err %v", a.Instruction, a.Operator, out, err)
		}
		warmResults[i] = row
	}
	if hits := m.Counter("cache.hit", "mem"); hits != uint64(len(catalog)) {
		t.Errorf("warm run: %d hits, want %d", hits, len(catalog))
	}

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
