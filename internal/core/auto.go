package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"extra/internal/equiv"
	"extra/internal/fault"
	"extra/internal/isps"
	"extra/internal/transform"
)

// The paper's section 7 asks for "methods ... to structure the analysis and
// to help the user in deciding how the analysis should proceed" and, in the
// introduction, for a system "that operates with little or no user
// intervention". AutoComplete is that mode for the tail of an analysis:
// once a script has performed the steps that need insight (simplifications,
// augments, coding constraints), the remaining gap to common form is often
// a handful of semantics-preserving rewrites — and those can be found by
// bounded search instead of a human.
//
// The search is one breadth-first loop, bounded twice: by maxDepth levels
// and by budget candidates consumed. Frontier states are expanded in order,
// and each of a state's candidates is charged to the budget before anything
// else is done with it, so a search that runs out of budget has paid for
// exactly budget candidates (search cost = states × cost per state; the
// budget caps the states). Per candidate:
//
//   - probe-result reuse: enumerating a state's candidates already applies
//     each transformation once; the resulting description is kept on the
//     candidate, so a successor state costs zero additional applications.
//   - hashed visited set: states are deduplicated by a 128-bit structural
//     digest of the description pair (isps.HashPair) instead of two full
//     pretty-printed sources per state.
//   - early exit: the first new state in common form ends the search, and
//     its trail is committed to the session from the probes' outcomes, as
//     Normalize commits its probes: no step is applied a second time.
//
// Candidates are consumed in (state, transformation, path) order, so a
// search is deterministic: the same pair and bounds give the same trail,
// explored count and budget error on every run. The search runs on the
// caller's goroutine; parallelism lives one level up, across candidates and
// analyses (batch.Pool).

// autoMoves are the argument-free semantics-preserving transformations the
// search may apply. Argument-bearing transformations (augments, operand
// fixes, inductions) stay the script's job: they need the analyst's intent.
var autoMoves = []string{
	// reducing rewrites
	"fold.add", "fold.sub", "fold.mul", "fold.div", "fold.compare",
	"fold.not", "fold.logic",
	"simplify.and.true", "simplify.and.false", "simplify.or.false",
	"simplify.or.true", "simplify.xor.false", "simplify.not.not",
	"simplify.add.zero", "simplify.sub.zero", "simplify.sub.self",
	"simplify.mul.one", "simplify.mul.zero", "simplify.div.one",
	"simplify.and.self", "simplify.or.self",
	"if.true", "if.false", "if.same", "if.empty", "exit.false",
	"rewrite.subeq", "rewrite.addsub.cancel", "rewrite.subadd.cancel",
	"rewrite.not.rel", "rewrite.neg.neg", "rewrite.add.neg",
	// shape-changing rewrites (their own inverses or nearly so; the
	// visited-state set keeps the search from cycling)
	"rewrite.commute.rel", "rewrite.eq.le.zero", "rewrite.ne.to.gt",
	"rewrite.zero.lt", "if.reverse", "move.swap", "if.pull.common",
	"loop.rotate.guarded", "loop.delete.dead", "exit.split", "exit.merge",
}

// autoCand is a probed, applicable candidate: the step (side,
// transformation, path), the probe's outcome, reused when the successor
// state is built and when the step is committed (no second application),
// and the index of its move in searchMoves.
type autoCand struct {
	side  Side
	xform string
	at    isps.Path
	out   *transform.Outcome
	move  int
}

// autoState is one node of the search tree: its descriptions and the
// probed candidate that led to it from its parent. Trails are reconstructed
// by walking parents, so enqueueing a state allocates no trail copy.
type autoState struct {
	op, ins *isps.Description
	parent  *autoState
	step    autoCand
}

// trail returns the steps from the root to this state, in application order.
func (st *autoState) trail() []autoCand {
	n := 0
	for s := st; s.parent != nil; s = s.parent {
		n++
	}
	out := make([]autoCand, n)
	for s := st; s.parent != nil; s = s.parent {
		n--
		out[n] = s.step
	}
	return out
}

// autoDigest keys the visited set. Tests wrap it to check that no two
// distinct states the search meets share a digest.
var autoDigest = isps.HashPair

// AutoComplete searches for a sequence of argument-free preserving
// transformations that brings the session's two descriptions into common
// form, applying it to the session (each found step is recorded like a
// scripted one). maxDepth bounds the sequence length and budget the number
// of candidate states explored. It returns the number of steps found; when
// no completion exists within the bounds the error is a *fault.BudgetError
// (errors.As-able), so callers can distinguish "search too small" from a
// broken session and escalate — see AutoCompleteRetry.
func (s *Session) AutoComplete(maxDepth, budget int) (int, error) {
	return s.autoComplete(s.Context(), maxDepth, budget, 0, 1)
}

// AutoRung is one rung of an auto-search retry ladder: the bounds one
// attempt runs under.
type AutoRung struct {
	MaxDepth, Budget int
}

// AutoLadder builds a rungs-long retry ladder starting at (depth, budget):
// each rung doubles the depth and quadruples the budget, matching the
// branching growth of the search space — the bounded-search-with-growing-
// budget pattern of exhaustive state-space search.
func AutoLadder(depth, budget, rungs int) []AutoRung {
	if rungs < 1 {
		rungs = 1
	}
	out := make([]AutoRung, rungs)
	for i := range out {
		out[i] = AutoRung{MaxDepth: depth, Budget: budget}
		depth *= 2
		budget *= 4
	}
	return out
}

// AutoCompleteRetry climbs a retry ladder instead of failing on the first
// budget exhaustion: each rung runs AutoComplete under its bounds, and a
// *fault.BudgetError escalates to the next rung while any other failure
// (a broken session, cancellation) aborts immediately. Per-rung attempts,
// exhaustions and the succeeding rung are counted in the metrics registry
// (auto.retry.attempt / auto.retry.exhausted / auto.retry.success, labeled
// rung<i>). A nil ctx uses the session's context. When every rung
// exhausts, the last rung's BudgetError is returned.
func (s *Session) AutoCompleteRetry(ctx context.Context, ladder []AutoRung) (int, error) {
	if len(ladder) == 0 {
		return 0, fmt.Errorf("core: empty auto-search retry ladder")
	}
	if ctx == nil {
		ctx = s.Context()
	}
	var last error
	for i, rung := range ladder {
		label := fmt.Sprintf("rung%d", i)
		s.Metrics.Inc("auto.retry.attempt", label)
		n, err := s.autoComplete(ctx, rung.MaxDepth, rung.Budget, i, len(ladder))
		if err == nil {
			s.Metrics.Inc("auto.retry.success", label)
			if s.tr.Enabled() {
				s.tr.Event("auto.retry", map[string]any{
					"outcome": "ok", "rung": i, "rungs": len(ladder),
					"depth": rung.MaxDepth, "budget": rung.Budget, "steps": n,
				})
			}
			return n, nil
		}
		var be *fault.BudgetError
		if !errors.As(err, &be) {
			return 0, err // escalation cannot fix a non-budget failure
		}
		last = err
		s.Metrics.Inc("auto.retry.exhausted", label)
		if s.tr.Enabled() {
			s.tr.Event("auto.retry", map[string]any{
				"outcome": "exhausted", "rung": i, "rungs": len(ladder),
				"depth": rung.MaxDepth, "budget": rung.Budget, "explored": be.Explored,
			})
		}
	}
	return 0, last
}

func (s *Session) autoComplete(ctx context.Context, maxDepth, budget, rung, rungs int) (int, error) {
	if _, err := equiv.CommonForm(s.Op, s.Ins); err == nil {
		return 0, nil
	}
	// The admitted states, keyed by the 128-bit structural digest of the
	// description pair: no pretty-printing, no retained strings.
	visited := map[isps.Digest]struct{}{autoDigest(s.Op, s.Ins): {}}
	pr := newProber(searchMoves, false)
	defer pr.flush(s.Metrics)
	frontier := []*autoState{{op: s.Op, ins: s.Ins}}
	explored := 0
	for depth := 0; depth < maxDepth && len(frontier) > 0; depth++ {
		var next []*autoState
		for _, st := range frontier {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("core: auto search after %d states: %w", explored, err)
			}
			for _, cand := range pr.candidates(st.op, st.ins) {
				if explored++; explored > budget {
					return 0, &fault.BudgetError{
						Op: "auto-search", Depth: maxDepth, Budget: budget,
						Explored: explored - 1, Rung: rung, Rungs: rungs,
						Reason: "state budget spent before a completion was found",
					}
				}
				pr.counts[cand.move].explored++
				op, ins := st.op, st.ins
				if cand.side == OpSide {
					op = cand.out.Desc
				} else {
					ins = cand.out.Desc
				}
				d := autoDigest(op, ins)
				if _, seen := visited[d]; seen {
					continue // seen earlier in this level or an earlier one
				}
				visited[d] = struct{}{}
				// Intern only new states: duplicates never pay the
				// canonicalization walk, and new ones share structure with
				// their parents so the next level's digests and Equal checks
				// answer from memos. The probe's outcome is the search's
				// own, so it is interned in place.
				succ := &autoState{op: internOwned(op), ins: internOwned(ins), parent: st, step: cand}
				if _, err := equiv.CommonForm(succ.op, succ.ins); err == nil {
					// Commit the trail: every step is checked and recorded
					// as a scripted one, from the outcome its probe made.
					// A committed step has no application of its own to
					// time.
					trail := succ.trail()
					for _, c := range trail {
						if err := s.commit(c.side, pr.t.moves[c.move], c.at, nil, c.out, 0); err != nil {
							return 0, err
						}
					}
					return len(trail), nil
				}
				next = append(next, succ)
			}
		}
		if s.tr.Enabled() {
			s.tr.Event("auto.level", map[string]any{
				"depth": depth, "frontier": len(frontier), "next": len(next),
				"explored": explored, "visited": len(visited),
			})
		}
		frontier = next
	}
	return 0, &fault.BudgetError{
		Op: "auto-search", Depth: maxDepth, Budget: budget, Explored: explored,
		Rung: rung, Rungs: rungs,
		Reason: "no completion found within the depth bound",
	}
}

// candidates enumerates the applicable moves of a state: it probes each
// move at each site of its kind on both sides and keeps the applicable
// ones — with their probe outcomes — in a deterministic order, by
// transformation name, then path, then side. Candidates that would
// introduce constraints are dropped here rather than re-probed later.
func (pr *prober) candidates(op, ins *isps.Description) []autoCand {
	var out []autoCand
	for _, side := range [...]Side{OpSide, InsSide} {
		d := ins
		if side == OpSide {
			d = op
		}
		// The tree is immutable during enumeration, so the walked node is
		// exactly what each probe sees.
		for _, c := range pr.walk(d) {
			for _, i := range pr.t.byKind[c.kind] {
				res, _ := pr.probe(i, d, c.n, c.p)
				if res == nil || len(res.Constraints) > 0 {
					continue
				}
				out = append(out, autoCand{side: side, xform: pr.t.moves[i].Name, at: c.p, out: res, move: i})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].xform != out[j].xform {
			return out[i].xform < out[j].xform
		}
		return pathLess(out[i].at, out[j].at)
	})
	return out
}

// pathLess orders paths by their component sequence (shorter prefix
// first), without building the "/1/2" strings the old search compared.
func pathLess(a, b isps.Path) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
