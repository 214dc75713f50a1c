// Package inject_test holds the chaos suite: every fault class the
// injection harness can produce is driven through the real pipeline, and
// each one must degrade cleanly — a typed error or a recorded fallback,
// never a panic and never a leaked goroutine.
package inject_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extra/internal/batch"
	"extra/internal/codegen"
	"extra/internal/core"
	"extra/internal/fault"
	"extra/internal/fault/inject"
	"extra/internal/hll"
	"extra/internal/interp"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/proofs"
	"extra/internal/server"
	"extra/internal/transform"
)

// checkGoroutines fails the test if the goroutine count has not settled
// back to (at most) the baseline within a grace period — the no-leak
// invariant for every chaos scenario.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d running, baseline %d", n, baseline)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func chaosSession(t *testing.T) *core.Session {
	t.Helper()
	a := proofs.ScasbRigel()
	op, ins := langops.Get(a.Operator), machines.Get(a.Instruction)
	if op == nil || ins == nil {
		t.Fatalf("corpus pair %s/%s missing", a.Instruction, a.Operator)
	}
	s, err := core.NewSession(op, ins)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChaosBadCursorPath: a garbage cursor path on a real analysis pair
// yields a typed PathError; the session survives and still completes.
func TestChaosBadCursorPath(t *testing.T) {
	base := runtime.NumGoroutine()
	s := chaosSession(t)
	before := isps.Format(s.Ins)
	err := s.Apply(core.InsSide, "if.reverse", isps.Path{42, 42, 42}, transform.Args{})
	var pe *fault.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T (%v), want *fault.PathError", err, err)
	}
	if isps.Format(s.Ins) != before {
		t.Error("failed step mutated the instruction description")
	}
	checkGoroutines(t, base)
}

// TestChaosStepLimitInjection: an injected starvation budget makes
// differential validation fail with the interpreter's typed sentinel — the
// error must carry ErrStepLimit through the validation layer, not panic.
func TestChaosStepLimitInjection(t *testing.T) {
	base := runtime.NumGoroutine()
	a := proofs.ScasbRigel()
	_, b, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	in := inject.New(99)
	in.Arm(inject.Fault{Point: "interp.steplimit", Every: 1, Val: 1})
	restore := inject.Activate(in)
	defer restore()
	_, verr := core.ValidateBindingCtx(context.Background(), b, a.Gen, 5, 1)
	if verr == nil {
		t.Fatal("validation succeeded under a one-statement step budget")
	}
	if !errors.Is(verr, interp.ErrStepLimit) {
		t.Errorf("err = %v, want wrapped interp.ErrStepLimit", verr)
	}
	if in.Fired("interp.steplimit") == 0 {
		t.Error("injector never fired")
	}
	checkGoroutines(t, base)
}

// TestChaosSinkWriteFailure: concurrent tracing into a sink whose writer
// fails on a schedule. The sink must report the failure (Err, Dropped),
// must not panic, and every line that did reach the buffer must be intact
// JSON — no interleaving corruption.
func TestChaosSinkWriteFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(inject.NewFlakyWriter(&buf, 5, 3))
	tr := obs.NewTracer(sink)

	const workers, events = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				tr.Event("chaos.write", map[string]any{"worker": w, "i": i})
			}
		}(w)
	}
	wg.Wait()

	if sink.Err() == nil {
		t.Fatal("sink swallowed the injected write failures")
	}
	if sink.Dropped() == 0 {
		t.Error("Dropped() = 0 despite failing writes")
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d of the surviving trace is not valid JSON: %q", i, line)
		}
	}
	checkGoroutines(t, base)
}

// TestChaosCorruptBindingJSON: deterministic corruptions of a real binding
// document. The loader must reject or repair-and-validate every mutant —
// acceptance implies Validate passes — and never panic.
func TestChaosCorruptBindingJSON(t *testing.T) {
	base := runtime.NumGoroutine()
	_, b, err := proofs.ScasbRigel().Run()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for seed := int64(0); seed <= 50; seed++ {
		mutant := inject.CorruptJSON(seed, doc)
		var got core.Binding
		if uerr := json.Unmarshal(mutant, &got); uerr != nil {
			rejected++
			continue
		}
		if verr := got.Validate(); verr != nil {
			t.Errorf("seed %d: loader accepted a document that fails Validate: %v", seed, verr)
		}
	}
	if rejected == 0 {
		t.Error("no corruption seed produced a rejected document; harness too weak")
	}
	checkGoroutines(t, base)
}

// TestChaosMalformedISPS: deterministic source-level mangling of every
// corpus description. Parse either errors or yields a tree the rest of the
// front end can process without panicking.
func TestChaosMalformedISPS(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, e := range machines.All() {
		for seed := int64(0); seed < 16; seed++ {
			src := inject.MangleSource(seed, e.Source)
			d, err := isps.Parse(src)
			if err != nil {
				continue
			}
			_ = isps.Validate(d)
			_ = isps.Format(d)
		}
	}
	checkGoroutines(t, base)
}

// TestChaosContextCancellation: cancellation and deadlines cut through
// every layer — session steps, auto-search, and the interpreter — with
// context errors, not hangs.
func TestChaosContextCancellation(t *testing.T) {
	base := runtime.NumGoroutine()

	s := chaosSession(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(canceled)
	if err := s.Apply(core.InsSide, "augment.epilogue", nil, transform.Args{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Apply under canceled ctx: %v", err)
	}

	s2 := chaosSession(t)
	deadline, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	s2.SetContext(deadline)
	if _, err := s2.AutoComplete(8, 1<<30); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("AutoComplete under expired deadline: %v", err)
	}

	spin := isps.MustParse(`spin.operation := begin
** S **
  x: integer,
  spin.execute := begin
    input (x);
    repeat
      exit_when (x < 0);
      x <- x + 1;
    end_repeat;
    output (x);
  end
end`)
	rctx, cancel3 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel3()
	if _, err := interp.Run(rctx, spin, []uint64{0}, interp.NewState(), 1<<30); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("interp.Run under expired deadline: %v", err)
	}
	checkGoroutines(t, base)
}

// TestChaosCorruptBindingFallback: a structurally corrupt binding injected
// into the code generator demotes the operation to its decomposition loop
// — the compile succeeds and the degradation is counted.
func TestChaosCorruptBindingFallback(t *testing.T) {
	base := runtime.NumGoroutine()
	prev := obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(prev)

	restore := codegen.InjectBindings(map[string]*core.Binding{
		"Intel 8086/scasb/index": {Instruction: "scasb", Operation: "index"},
	})
	defer restore()

	prog, err := hll.Parse("data 100 \"needle in a haystack\"\nlet i = index 100 19 'x'\nprint i\n")
	if err != nil {
		t.Fatal(err)
	}
	tg, err := codegen.For("i8086")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tg.Compile(prog, codegen.AllOn()); err != nil {
		t.Fatalf("compile with corrupt binding must degrade, not fail: %v", err)
	}
	if n := obs.Default().Counter("codegen.fallback", "i8086/index"); n == 0 {
		t.Error("codegen.fallback[i8086/index] = 0, want >= 1")
	}
	checkGoroutines(t, base)
}

// TestChaosServeFlood floods the analysis service well past its admission
// capacity: some requests must be shed with 429, every admitted request must
// get a complete response, and the subsequent drain must return cleanly with
// no goroutines left behind.
func TestChaosServeFlood(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := obs.NewRegistry()
	// Hold every worker at a gate so the flood piles up against admission
	// control instead of racing the (fast) analyses to completion: with 2
	// workers and a 2-deep queue, exactly 4 of the flood are admitted and
	// the rest must shed.
	a := proofs.Movc3PC2()
	orig := a.Script
	gate := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(gate) }) }
	defer unblock()
	a.Script = func(s *core.Session) error {
		<-gate
		return orig(s)
	}
	s := server.New(server.Config{Jobs: 2, Queue: 2, Catalog: []*proofs.Analysis{a}, Metrics: m})
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, func(ad net.Addr) { addrc <- ad }) }()
	addr := (<-addrc).String()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/analyze?pair=" + a.Instruction + "/" + a.Operator

	const flood = 24
	var wg sync.WaitGroup
	var served, shed, other atomic.Int64
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(url)
			if err != nil {
				other.Add(1)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var res batch.Result
				if json.NewDecoder(resp.Body).Decode(&res) != nil || res.Outcome != "ok" {
					other.Add(1)
					return
				}
				served.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	// Everything past capacity 4 (2 workers + 2 queued) sheds immediately;
	// once the rejects are all in, release the gate so the admitted four
	// finish. Waiting on the shed count (not a sleep) keeps this exact.
	deadline := time.Now().Add(10 * time.Second)
	for shed.Load() < flood-4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	unblock()
	wg.Wait()
	if other.Load() > 0 {
		t.Errorf("%d flood requests got neither a served row nor a 429", other.Load())
	}
	if served.Load() != 4 {
		t.Errorf("flood served %d requests, want exactly the 4 admitted", served.Load())
	}
	if shed.Load() != flood-4 {
		t.Errorf("flood shed %d requests, want %d (everything past capacity)", shed.Load(), flood-4)
	}
	t.Logf("flood: %d served, %d shed", served.Load(), shed.Load())

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drain after flood: %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after the flood")
	}
	client.CloseIdleConnections()
	checkGoroutines(t, baseline)
}
