package synth

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"extra/internal/codegen"
	"extra/internal/sim"
)

// TestFullCatalogVerifies is the acceptance gate: every catalog binding
// must yield at least five differentially verified, cycle-ranked variants
// with zero unsound expansions.
func TestFullCatalogVerifies(t *testing.T) {
	rep, err := Run(context.Background(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unsound != 0 {
		t.Errorf("%d unsound variants", rep.Unsound)
	}
	if len(rep.Bindings) != len(Catalog) {
		t.Fatalf("reported %d bindings, catalog has %d", len(rep.Bindings), len(Catalog))
	}
	for _, b := range rep.Bindings {
		if b.Error != "" {
			t.Errorf("%s: %s", b.Key, b.Error)
			continue
		}
		if b.Verified < 5 {
			t.Errorf("%s: only %d verified variants", b.Key, b.Verified)
		}
		if b.BaseCycles == 0 {
			t.Errorf("%s: zero base cycles", b.Key)
		}
		for _, u := range b.Unsound {
			t.Errorf("%s unsound: %s", b.Key, u)
		}
		for i := 1; i < len(b.Variants); i++ {
			a, c := b.Variants[i-1], b.Variants[i]
			if a.Cycles > c.Cycles {
				t.Errorf("%s: ranking not by cycles at #%d", b.Key, i)
			}
		}
		for _, v := range b.Variants {
			if v.Cycles < b.BaseCycles {
				t.Errorf("%s: expansion %v cheaper than the original (%d < %d)",
					b.Key, v.Trail, v.Cycles, b.BaseCycles)
			}
		}
	}
}

// TestSweepsClean pins the bugfix sweep's outcome at head: the generator
// agrees with the reference semantics at every boundary length, every
// simulator agrees with its corpus description, and every catalog binding
// document is intact. Any regression in those layers lands here.
func TestSweepsClean(t *testing.T) {
	for _, sweep := range []struct {
		name string
		run  func() ([]Divergence, error)
	}{
		{"binding", BindingSweep},
		{"boundary", BoundarySweep},
		{"instruction", InstructionSweep},
	} {
		divs, err := sweep.run()
		if err != nil {
			t.Fatalf("%s: %v", sweep.name, err)
		}
		for _, d := range divs {
			t.Errorf("%s: %s", sweep.name, d)
		}
	}
}

// TestSameSeedDeterminism: two runs with the same seed must serialize to
// byte-identical reports once the wall-clock fields are zeroed.
func TestSameSeedDeterminism(t *testing.T) {
	cfg := Config{Seed: 99, Bindings: []string{
		"VAX-11/movc3/sassign", "IBM 370/mvc/sassign", "Intel 8086/scasb/index"}}
	norm := func() []byte {
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep.DurationMS = 0
		rep.Trace = ""
		bs, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	a, b := norm(), norm()
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different reports")
	}
	// A different seed must still verify but may pick different constants.
	cfg.Seed = 100
	if c := norm(); bytes.Equal(a, c) {
		t.Log("note: different seed produced an identical report (possible but unlikely)")
	}
}

// TestReportFiles exercises both writers through the atomic path.
func TestReportFiles(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Seed: 3, Bindings: []string{"IBM 370/tr/xlate"}, MaxVariants: 6, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jp := filepath.Join(dir, "synth.json")
	if err := rep.WriteJSON(jp); err != nil {
		t.Fatal(err)
	}
	var back Report
	bs, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bs, &back); err != nil {
		t.Fatal(err)
	}
	if back.Config != rep.Config || len(back.Bindings) != 1 {
		t.Errorf("round-tripped report differs")
	}
	lp := filepath.Join(dir, "synth.jsonl")
	if err := rep.WriteJSONL(lp); err != nil {
		t.Fatal(err)
	}
	ls, err := os.ReadFile(lp)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(ls, []byte("\n")); lines != 2 { // header + 1 binding
		t.Errorf("jsonl has %d lines, want 2", lines)
	}
	var render bytes.Buffer
	rep.Render(&render)
	if !bytes.Contains(render.Bytes(), []byte("IBM 370/tr/xlate")) {
		t.Error("render missing the binding")
	}
}

// TestDiffAgainstRefNamesLowestAddress pins that a memory divergence names
// the lowest mismatching address, whatever order the reference map is
// ranged in, so a report that has one reads the same in every run.
func TestDiffAgainstRefNamesLowestAddress(t *testing.T) {
	tg, err := codegen.For("i8086")
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewMachine(tg.ISA(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[uint64]byte{50: 0, 60: 7}
	m.StoreByte(60, 7)
	for a := uint64(100); a < 140; a++ {
		ref[a] = byte(a) // the machine's memory holds 0 there
	}
	want := "mem[100] = 0x0, reference 0x64"
	for range 50 {
		if got := diffAgainstRef(m, nil, ref); got != want {
			t.Fatalf("diff = %q, want %q", got, want)
		}
	}
}

func TestSelectBindingsUnknownKey(t *testing.T) {
	if _, err := Run(context.Background(), Config{Bindings: []string{"nope"}}); err == nil {
		t.Error("unknown binding key accepted")
	}
}

func TestWorkloadUnknownClass(t *testing.T) {
	if _, err := Workload("frobnicate", 8, canonicalData(8)); err == nil {
		t.Error("unknown class accepted")
	}
}

// BenchmarkSynth measures one binding's full enumerate-verify-rank cycle;
// ci.sh gates its allocations.
func BenchmarkSynth(b *testing.B) {
	cfg := Config{Seed: 1, Bindings: []string{"VAX-11/movc3/sassign"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Verified == 0 {
			b.Fatal("no variants verified")
		}
		b.ReportMetric(float64(rep.Verified), "variants/op")
	}
}

// BenchmarkSweep measures the full cross-layer divergence sweep.
func BenchmarkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		divs, err := BoundarySweep()
		if err != nil {
			b.Fatal(err)
		}
		if len(divs) != 0 {
			b.Fatalf("%d divergences", len(divs))
		}
	}
}
