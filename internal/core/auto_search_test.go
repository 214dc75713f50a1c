package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"extra/internal/fault"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/transform"
)

// autoTrail renders the session's recorded steps as one comparable string:
// side, transformation and path of every step, in order.
func autoTrail(s *Session) string {
	var b strings.Builder
	for _, st := range s.Steps {
		fmt.Fprintf(&b, "%s %s %s\n", st.Side, st.Xform, st.At)
	}
	return b.String()
}

// searchCase is one (pair, setup) auto-search scenario used by the
// pinned-trail test; depth and budget are the bounds the width tests run
// it at.
type searchCase struct {
	name          string
	build         func(t *testing.T) *Session
	depth, budget int
}

func searchCases() []searchCase {
	return []searchCase{
		{
			name: "cpy_blt",
			build: func(t *testing.T) *Session {
				s, err := NewSession(isps.MustParse(autoDrillOpSrc), isps.MustParse(autoDrillInsSrc))
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			depth: 3, budget: 50000,
		},
		{
			name: "blkcpy_movc3",
			build: func(t *testing.T) *Session {
				s := newPairSession(t, "blkcpy", "movc3")
				if err := s.Apply(InsSide, "augment.epilogue", nil, transform.Args{}); err != nil {
					t.Fatal(err)
				}
				return s
			},
			depth: 4, budget: 200000,
		},
	}
}

// checkDigests wraps the search's digest for the rest of the test: every
// digest is recorded with the formatted state it stands for, and a digest
// met again with a different state fails the test as a 128-bit collision.
func checkDigests(t *testing.T) {
	seen := map[isps.Digest]string{}
	autoDigest = func(op, ins isps.Node) isps.Digest {
		d := isps.HashPair(op, ins)
		key := isps.Format(op.(*isps.Description)) + "\x00" + isps.Format(ins.(*isps.Description))
		if prev, ok := seen[d]; ok && prev != key {
			t.Errorf("128-bit state hash collision on digest %016x%016x:\n%s\nand:\n%s", d.Hi, d.Lo, prev, key)
		}
		seen[d] = key
		return d
	}
	t.Cleanup(func() { autoDigest = isps.HashPair })
}

// TestAutoParallelDeterministic: Session.AutoWorkers is ignored, so every
// width must commit the byte-identical step trail and explored count of the
// width-1 run. Every digest is checked against its state, so any 128-bit
// state collision in these searches would also surface here.
func TestAutoParallelDeterministic(t *testing.T) {
	checkDigests(t)
	for _, tc := range searchCases() {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				trail    string
				steps    int
				explored uint64
			}
			var want outcome
			for _, workers := range []int{1, 2, 4, 8} {
				s := tc.build(t)
				s.AutoWorkers = workers
				s.Metrics = obs.NewRegistry()
				n, err := s.AutoComplete(tc.depth, tc.budget)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := outcome{trail: autoTrail(s), steps: n, explored: s.Metrics.Total("auto.explored")}
				if workers == 1 {
					want = got
					if want.steps == 0 {
						t.Fatal("search found nothing; the case no longer exercises the frontier")
					}
					continue
				}
				if got.trail != want.trail {
					t.Errorf("workers=%d: trail differs from width-1 run\nwidth 1:\n%sworkers=%d:\n%s",
						workers, want.trail, workers, got.trail)
				}
				if got.steps != want.steps || got.explored != want.explored {
					t.Errorf("workers=%d: (steps, explored) = (%d, %d), width 1 (%d, %d)",
						workers, got.steps, got.explored, want.steps, want.explored)
				}
			}
		})
	}
}

// TestAutoParallelDeterministicRepeat: two identical runs with a width set
// agree with each other.
func TestAutoParallelDeterministicRepeat(t *testing.T) {
	tc := searchCases()[0]
	var trails [2]string
	for i := range trails {
		s := tc.build(t)
		s.AutoWorkers = 4
		s.Metrics = obs.NewRegistry()
		if _, err := s.AutoComplete(tc.depth, tc.budget); err != nil {
			t.Fatal(err)
		}
		trails[i] = autoTrail(s)
	}
	if trails[0] != trails[1] {
		t.Errorf("identical runs recorded different trails:\n%s\nvs:\n%s", trails[0], trails[1])
	}
}

// TestAutoSearchTrailsPinned pins the search's answers over a depth ×
// budget grid: the recorded step trail, the step count, the auto.explored
// count and the budget error of every run. The rows were recorded from the
// level-at-a-time search this serial loop replaced, so they also pin that
// the budget is charged candidate by candidate in (state, transformation,
// path) order and that the first new state in common form wins. Every
// digest is checked against its state, so a 128-bit state collision in these
// searches would surface here too.
func TestAutoSearchTrailsPinned(t *testing.T) {
	checkDigests(t)
	want := []struct {
		name          string
		depth, budget int
		steps         int
		explored      uint64
		trail, err    string
	}{
		{"cpy_blt", 1, 10, 0, 7, "", "fault: auto-search exhausted (depth 1, budget 10, 7 states explored): no completion found within the depth bound"},
		{"cpy_blt", 1, 100, 0, 7, "", "fault: auto-search exhausted (depth 1, budget 100, 7 states explored): no completion found within the depth bound"},
		{"cpy_blt", 1, 1000, 0, 7, "", "fault: auto-search exhausted (depth 1, budget 1000, 7 states explored): no completion found within the depth bound"},
		{"cpy_blt", 1, 200000, 0, 7, "", "fault: auto-search exhausted (depth 1, budget 200000, 7 states explored): no completion found within the depth bound"},
		{"cpy_blt", 2, 10, 0, 10, "", "fault: auto-search exhausted (depth 2, budget 10, 10 states explored): state budget spent before a completion was found"},
		{"cpy_blt", 2, 100, 2, 48, "instruction rewrite.commute.rel /0/3/0/1/0/0/0\noperator rewrite.eq.le.zero /0/3/0/1/0/0/0\n", ""},
		{"cpy_blt", 2, 1000, 2, 48, "instruction rewrite.commute.rel /0/3/0/1/0/0/0\noperator rewrite.eq.le.zero /0/3/0/1/0/0/0\n", ""},
		{"cpy_blt", 2, 200000, 2, 48, "instruction rewrite.commute.rel /0/3/0/1/0/0/0\noperator rewrite.eq.le.zero /0/3/0/1/0/0/0\n", ""},
		{"cpy_blt", 3, 10, 0, 10, "", "fault: auto-search exhausted (depth 3, budget 10, 10 states explored): state budget spent before a completion was found"},
		{"cpy_blt", 3, 100, 2, 48, "instruction rewrite.commute.rel /0/3/0/1/0/0/0\noperator rewrite.eq.le.zero /0/3/0/1/0/0/0\n", ""},
		{"cpy_blt", 3, 1000, 2, 48, "instruction rewrite.commute.rel /0/3/0/1/0/0/0\noperator rewrite.eq.le.zero /0/3/0/1/0/0/0\n", ""},
		{"cpy_blt", 3, 200000, 2, 48, "instruction rewrite.commute.rel /0/3/0/1/0/0/0\noperator rewrite.eq.le.zero /0/3/0/1/0/0/0\n", ""},
		{"cpy_blt", 4, 10, 0, 10, "", "fault: auto-search exhausted (depth 4, budget 10, 10 states explored): state budget spent before a completion was found"},
		{"cpy_blt", 4, 100, 2, 48, "instruction rewrite.commute.rel /0/3/0/1/0/0/0\noperator rewrite.eq.le.zero /0/3/0/1/0/0/0\n", ""},
		{"cpy_blt", 4, 1000, 2, 48, "instruction rewrite.commute.rel /0/3/0/1/0/0/0\noperator rewrite.eq.le.zero /0/3/0/1/0/0/0\n", ""},
		{"cpy_blt", 4, 200000, 2, 48, "instruction rewrite.commute.rel /0/3/0/1/0/0/0\noperator rewrite.eq.le.zero /0/3/0/1/0/0/0\n", ""},
		{"blkcpy_movc3", 1, 10, 0, 10, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 1, budget 10, 10 states explored): state budget spent before a completion was found"},
		{"blkcpy_movc3", 1, 100, 0, 22, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 1, budget 100, 22 states explored): no completion found within the depth bound"},
		{"blkcpy_movc3", 1, 1000, 0, 22, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 1, budget 1000, 22 states explored): no completion found within the depth bound"},
		{"blkcpy_movc3", 1, 200000, 0, 22, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 1, budget 200000, 22 states explored): no completion found within the depth bound"},
		{"blkcpy_movc3", 2, 10, 0, 10, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 2, budget 10, 10 states explored): state budget spent before a completion was found"},
		{"blkcpy_movc3", 2, 100, 0, 100, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 2, budget 100, 100 states explored): state budget spent before a completion was found"},
		{"blkcpy_movc3", 2, 1000, 0, 506, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 2, budget 1000, 506 states explored): no completion found within the depth bound"},
		{"blkcpy_movc3", 2, 200000, 0, 506, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 2, budget 200000, 506 states explored): no completion found within the depth bound"},
		{"blkcpy_movc3", 3, 10, 0, 10, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 3, budget 10, 10 states explored): state budget spent before a completion was found"},
		{"blkcpy_movc3", 3, 100, 0, 100, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 3, budget 100, 100 states explored): state budget spent before a completion was found"},
		{"blkcpy_movc3", 3, 1000, 0, 1000, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 3, budget 1000, 1000 states explored): state budget spent before a completion was found"},
		{"blkcpy_movc3", 3, 200000, 3, 4943, "instruction augment.epilogue /\noperator rewrite.commute.rel /0/3/0/1/0\noperator rewrite.eq.le.zero /0/3/0/1/1/2/0/0/0\noperator rewrite.eq.le.zero /0/3/0/1/2/0/0/0/0\n", ""},
		{"blkcpy_movc3", 4, 10, 0, 10, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 4, budget 10, 10 states explored): state budget spent before a completion was found"},
		{"blkcpy_movc3", 4, 100, 0, 100, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 4, budget 100, 100 states explored): state budget spent before a completion was found"},
		{"blkcpy_movc3", 4, 1000, 0, 1000, "instruction augment.epilogue /\n", "fault: auto-search exhausted (depth 4, budget 1000, 1000 states explored): state budget spent before a completion was found"},
		{"blkcpy_movc3", 4, 200000, 3, 4943, "instruction augment.epilogue /\noperator rewrite.commute.rel /0/3/0/1/0\noperator rewrite.eq.le.zero /0/3/0/1/1/2/0/0/0\noperator rewrite.eq.le.zero /0/3/0/1/2/0/0/0/0\n", ""},
	}
	for _, tc := range searchCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range want {
				if w.name != tc.name {
					continue
				}
				s := tc.build(t)
				s.Metrics = obs.NewRegistry()
				n, err := s.AutoComplete(w.depth, w.budget)
				errText := ""
				if err != nil {
					var be *fault.BudgetError
					if !errors.As(err, &be) {
						t.Fatalf("depth %d budget %d: %v", w.depth, w.budget, err)
					}
					errText = err.Error()
				}
				got := autoTrail(s)
				explored := s.Metrics.Total("auto.explored")
				if n != w.steps || explored != w.explored || got != w.trail || errText != w.err {
					t.Errorf("depth %d budget %d:\n got steps %d, explored %d, err %q, trail:\n%s\nwant steps %d, explored %d, err %q, trail:\n%s",
						w.depth, w.budget, n, explored, errText, got, w.steps, w.explored, w.err, w.trail)
				}
			}
		})
	}
}

// TestHashCollisionFreeOverCorpus: across every description of both corpora
// — and every (operator, instruction) pairing — distinct formatted states
// get distinct digests. A failure means the 128-bit digest is conflating
// states the old string-keyed visited set kept apart.
func TestHashCollisionFreeOverCorpus(t *testing.T) {
	var descs []*isps.Description
	for _, e := range machines.All() {
		descs = append(descs, isps.MustParse(e.Source))
	}
	for _, e := range langops.All() {
		descs = append(descs, isps.MustParse(e.Source))
	}
	seen := map[isps.Digest]string{}
	note := func(d isps.Digest, key string) {
		if prev, ok := seen[d]; ok {
			if prev != key {
				t.Fatalf("digest collision between distinct states:\n%s\nand:\n%s", prev, key)
			}
			return
		}
		seen[d] = key
	}
	for _, d := range descs {
		note(isps.Hash(d), isps.Format(d))
	}
	for _, a := range descs {
		for _, b := range descs {
			note(isps.HashPair(a, b), isps.Format(a)+"\x00"+isps.Format(b))
		}
	}
	if len(seen) < len(descs) {
		t.Fatalf("only %d distinct digests for %d descriptions", len(seen), len(descs))
	}
}

// The drill pair of the pinned-trail cases: the operator differs from the
// instruction by surface rewrites only (a commuted comparison and <= for =),
// so a depth-3 search completes it. Shared with the ladder benchmark's
// scenario at the repo root.
const autoDrillOpSrc = `cpy.operation := begin
** S **
  n: integer, a: integer, b: integer,
  cpy.execute := begin
    input (n, a, b);
    repeat
      exit_when (n <= 0);
      Mb[b] <- Mb[a];
      a <- a + 1;
      b <- b + 1;
      n <- n - 1;
    end_repeat;
  end
end`

const autoDrillInsSrc = `blt.instruction := begin
** S **
  cnt: integer, src: integer, dst: integer,
  blt.execute := begin
    input (cnt, src, dst);
    repeat
      exit_when (0 = cnt);
      Mb[dst] <- Mb[src];
      src <- src + 1;
      dst <- dst + 1;
      cnt <- cnt - 1;
    end_repeat;
  end
end`

// TestProbesFileNoReason: BenchmarkAutoSearchExhaust's search, on a
// session with its own registry, counts its failed probes per
// transformation under transform.precond and files no
// transform.precond.reason message (a scripted step still does).
func TestProbesFileNoReason(t *testing.T) {
	reg := obs.NewRegistry()
	_, err := AutoAnalyze(context.Background(), AutoSpec{
		Op: langops.Get("index"), Ins: machines.Get("movsb"), Ladder: AutoLadder(3, 1000, 2), Metrics: reg,
	})
	var be *fault.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want the ladder's budget exhaustion, got %v", err)
	}
	reasons := 0
	precond := map[string]int{}
	for _, c := range reg.Snapshot().Counters {
		switch c.Metric {
		case "transform.precond.reason":
			reasons++
		case "transform.precond":
			if _, err := transform.Get(c.Label); err != nil {
				t.Errorf("transform.precond series %q names no transformation", c.Label)
			}
			precond[c.Label]++
		}
	}
	if reasons > 0 {
		t.Errorf("the search filed %d transform.precond.reason series", reasons)
	}
	if len(precond) == 0 {
		t.Fatal("the search failed no precondition")
	}
	for name, n := range precond {
		if n > 1 {
			t.Errorf("%d transform.precond series for %s", n, name)
		}
	}
}

// watchCtx is a context whose Err reports cancellation from its cancelAt-th
// call on (never when cancelAt is 0), and calls watch on every call. The
// search checks its context before expanding each state, so watch sees
// the registry mid-search.
type watchCtx struct {
	context.Context
	calls, cancelAt int
	watch           func()
}

func (c *watchCtx) Err() error {
	c.calls++
	c.watch()
	if c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestSearchCountersFlushedOnce: the search counts the candidates it
// charges to its budget (auto.explored) and its refused probes
// (transform.precond, transform.error) in locals and records them once, as
// it returns, on every return path: the goal, a budget trip and
// cancellation. While it runs the registry holds none of them;
// after it returns it holds what the search counted per probe before the
// flush, less the probes the statement gates now skip (exit.false,
// if.true and if.false at conditionals and exits they cannot fold).
func TestSearchCountersFlushedOnce(t *testing.T) {
	cases := searchCases()
	for _, tc := range []struct {
		name                    string
		sc                      searchCase
		depth, budget, cancelAt int
		wantErr                 string
		explored, precond, errs uint64
	}{
		{"goal", cases[0], 2, 100, 0, "", 48, 112, 0},
		{"budget", cases[0], 2, 10, 0, "state budget spent", 10, 32, 0},
		{"cancel", cases[1], 3, 200000, 5, "auto search after 90 states: context canceled", 90, 168, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sc.build(t)
			reg := obs.NewRegistry()
			s.Metrics = reg
			totals := func() [3]uint64 {
				return [3]uint64{reg.Total("auto.explored"), reg.Total("transform.precond"), reg.Total("transform.error")}
			}
			before := totals()
			ctx := &watchCtx{Context: context.Background(), cancelAt: tc.cancelAt, watch: func() {
				if got := totals(); got != before {
					t.Fatalf("the registry moved mid-search: %v, before the search %v", got, before)
				}
			}}
			_, err := s.autoComplete(ctx, tc.depth, tc.budget, 0, 1)
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("search returned %v, want %q", err, tc.wantErr)
			}
			if ctx.calls == 0 {
				t.Fatal("the search never checked its context")
			}
			want := [3]uint64{tc.explored, tc.precond, tc.errs}
			if got := totals(); got != want {
				t.Errorf("(auto.explored, transform.precond, transform.error) = %v, want %v", got, want)
			}
		})
	}
}

// TestSearchCommitsProbedTrail: a completed search commits its trail from
// the outcomes its probes made and applies no transformation a second time.
// The registry Apply of every move on the trail records each call's
// (transformation, path, input description). Pairs repeat before the goal
// (every state that shares a side's description probes it again), so the
// completed search must make exactly the calls of the same search stopped
// by its budget one candidate short of the goal, which probes the same
// states: committing adds none, where replaying the trail through
// Session.Apply repeated every trail pair. Each committed step still
// counts transform.applied and one transform.apply.ns sample.
func TestSearchCommitsProbedTrail(t *testing.T) {
	for _, tc := range searchCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			s.Metrics = obs.NewRegistry()
			pre := len(s.Steps)
			if _, err := s.AutoComplete(tc.depth, tc.budget); err != nil {
				t.Fatal(err)
			}
			trail, explored := s.Steps[pre:], int(s.Metrics.Total("auto.explored"))
			if len(trail) == 0 {
				t.Fatal("the search found an empty trail; the case no longer exercises the commit")
			}
			moves := map[string]bool{}
			for _, st := range trail {
				moves[st.Xform] = true
			}
			calls := map[string]int{}
			for name := range moves {
				tr, err := transform.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				orig := tr.Apply
				tr.Apply = func(d *isps.Description, at isps.Path, args transform.Args) (*transform.Outcome, error) {
					calls[fmt.Sprintf("%s at %s on %x", name, at, isps.Hash(d))]++
					return orig(d, at, args)
				}
				defer func() { tr.Apply = orig }()
			}
			run := func(budget int) (map[string]int, *Session, error) {
				clear(calls)
				s := tc.build(t)
				s.Metrics = obs.NewRegistry()
				_, err := s.AutoComplete(tc.depth, budget)
				return maps.Clone(calls), s, err
			}
			stopped, _, err := run(explored - 1)
			var be *fault.BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("the search one candidate short of its goal returned %v, want a budget error", err)
			}
			done, s, err := run(explored)
			if err != nil || len(s.Steps) != len(trail)+pre {
				t.Fatalf("the recording run returned %v with trail:\n%s", err, autoTrail(s))
			}
			for k, n := range done {
				if n != stopped[k] {
					t.Errorf("%d calls of %s, %d when the search stops before its goal", n, k, stopped[k])
				}
			}
			if len(done) != len(stopped) {
				t.Errorf("%d distinct calls, %d when the search stops before its goal", len(done), len(stopped))
			}
			var applied, timed uint64
			for name := range moves {
				applied += s.Metrics.Counter("transform.applied", name)
			}
			for _, h := range s.Metrics.Snapshot().Histograms {
				if h.Metric == "transform.apply.ns" && moves[h.Label] {
					timed += h.Count
				}
			}
			if want := uint64(len(trail)); applied != want || timed != want {
				t.Errorf("transform.applied %d and transform.apply.ns samples %d over the trail's moves, want %d each", applied, timed, want)
			}
		})
	}
}
