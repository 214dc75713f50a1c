package inject

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestFireSchedule(t *testing.T) {
	in := New(1)
	in.Arm(Fault{Point: "p", Skip: 2, Every: 3})
	var fires []int
	for i := 0; i < 12; i++ {
		if f, ok := in.Fire("p"); ok {
			if f.Point != "p" {
				t.Errorf("fired fault %+v, want the one armed at p", f)
			}
			fires = append(fires, i)
		}
	}
	want := []int{2, 5, 8, 11}
	if len(fires) != len(want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fires, want)
		}
	}
	if in.Crossings("p") != 12 || in.Fired("p") != 4 {
		t.Errorf("crossings=%d fired=%d", in.Crossings("p"), in.Fired("p"))
	}
}

func TestFireOnceWhenEveryZero(t *testing.T) {
	in := New(1)
	in.Arm(Fault{Point: "p", Skip: 1, Every: 0})
	n := 0
	for i := 0; i < 10; i++ {
		if _, ok := in.Fire("p"); ok {
			n++
		}
	}
	if n != 1 {
		t.Errorf("fired %d times, want exactly once", n)
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if _, ok := in.Fire("p"); ok {
		t.Fatal("nil injector fired")
	}
	if _, ok := Fire("p"); ok {
		t.Fatal("inactive global injector fired")
	}
}

func TestActivateRestore(t *testing.T) {
	in := New(3)
	in.Arm(Fault{Point: "p", Every: 1})
	restore := Activate(in)
	if _, ok := Fire("p"); !ok {
		t.Fatal("active injector did not fire")
	}
	restore()
	if Active() != nil {
		t.Fatal("restore did not deactivate")
	}
	if _, ok := Fire("p"); ok {
		t.Fatal("fired after restore")
	}
}

func TestCorruptJSONDeterministic(t *testing.T) {
	doc := []byte(`{"a": [1, 2, 3], "b": {"c": "text"}}`)
	changed := 0
	for seed := int64(0); seed < 64; seed++ {
		a := CorruptJSON(seed, doc)
		b := CorruptJSON(seed, doc)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d not deterministic", seed)
		}
		if !bytes.Equal(a, doc) {
			changed++
		}
		if !json.Valid(a) {
			continue // broken JSON is the point
		}
	}
	if changed < 48 {
		t.Errorf("only %d/64 seeds changed the document", changed)
	}
}

func TestMangleSourceDeterministic(t *testing.T) {
	src := "x.operation := begin\n** S **\n  n: integer,\nend"
	changed := 0
	for seed := int64(0); seed < 64; seed++ {
		a := MangleSource(seed, src)
		if a != MangleSource(seed, src) {
			t.Fatalf("seed %d not deterministic", seed)
		}
		if a != src {
			changed++
		}
	}
	if changed < 48 {
		t.Errorf("only %d/64 seeds changed the source", changed)
	}
}

func TestFlakyWriterSchedule(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFlakyWriter(&buf, 7, 3)
	wrote, failed := 0, 0
	for i := 0; i < 30; i++ {
		if _, err := fw.Write([]byte("x")); err != nil {
			failed++
		} else {
			wrote++
		}
	}
	if failed != 10 {
		t.Errorf("failed %d writes of 30 with every=3, want 10", failed)
	}
	if fw.Failures() != uint64(failed) {
		t.Errorf("Failures() = %d, want %d", fw.Failures(), failed)
	}
	if buf.Len() != wrote {
		t.Errorf("buffer has %d bytes, want %d (failed writes must write nothing)", buf.Len(), wrote)
	}
}

func TestFlakyWriterEveryWriteFails(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFlakyWriter(&buf, 1, 0)
	for i := 0; i < 5; i++ {
		if _, err := fw.Write([]byte("x")); err == nil {
			t.Fatal("every=0 (clamped to 1) should fail every write")
		}
	}
	if buf.Len() != 0 {
		t.Errorf("failed writes leaked %d bytes", buf.Len())
	}
}
