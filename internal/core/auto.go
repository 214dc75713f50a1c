package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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
// The search is a breadth-first frontier expansion built for throughput:
//
//   - probe-result reuse: enumerating a state's candidates already applies
//     each transformation once; the resulting description is kept on the
//     candidate, so a successor state costs zero additional applications
//     (the old search applied everything twice — once to probe, once to
//     expand).
//   - hashed visited set: states are deduplicated by a 128-bit structural
//     digest of the description pair (isps.HashPair) instead of two full
//     pretty-printed sources per state.
//   - parallel frontier expansion: each depth level is expanded across a
//     worker pool (Session.AutoWorkers, default GOMAXPROCS) over a sharded
//     visited set. Results merge in the deterministic (state, transform,
//     path) candidate order before seeding the next frontier, so the
//     parallel search explores, dedups, and answers byte-identically to
//     the serial one. Descriptions are immutable once built, which makes
//     sharing them across workers race-free.

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

// autoStep is one candidate application found by the search.
type autoStep struct {
	side  Side
	xform string
	at    isps.Path
}

// autoCand is a probed, applicable candidate: the step plus the probe's
// outcome, reused when the successor state is built (no second application).
type autoCand struct {
	autoStep
	out *transform.Outcome
}

// autoState is one node of the search tree. Trails are reconstructed by
// walking parents, so enqueueing a state allocates no trail copy.
type autoState struct {
	op, ins *isps.Description
	parent  *autoState
	step    autoStep
}

// trail returns the steps from the root to this state, in application order.
func (st *autoState) trail() []autoStep {
	n := 0
	for s := st; s.parent != nil; s = s.parent {
		n++
	}
	out := make([]autoStep, n)
	for s := st; s.parent != nil; s = s.parent {
		n--
		out[n] = s.step
	}
	return out
}

// expCand is a candidate expanded by a frontier worker: the successor state
// descriptions (built from the reused probe outcome), their pair digest,
// and whether the successor reaches common form. order is the candidate's
// global deterministic position in the level (see visitedSet).
type expCand struct {
	autoCand
	newOp, newIns *isps.Description
	digest        isps.Digest
	goal          bool
	seen          bool
	order         uint64
}

// autoHashCheck enables the visited set's hash-collision check mode (every
// digest is verified against the formatted state key it stands for). The
// mode retains strings and exists for tests; production searches leave it
// off.
var autoHashCheck atomic.Bool

// SetHashCheck toggles the auto-search visited set's hash-collision check
// mode process-wide (the `-check-hashes` flag on `extra analyze`/`batch`).
// With it on, every accepted digest is verified against the full formatted
// state key, so a 128-bit collision surfaces as a hard error instead of a
// silently pruned branch.
func SetHashCheck(on bool) { autoHashCheck.Store(on) }

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
			if s.Tracer.Enabled() {
				s.Tracer.Event("auto.retry", map[string]any{
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
		if s.Tracer.Enabled() {
			s.Tracer.Event("auto.retry", map[string]any{
				"outcome": "exhausted", "rung": i, "rungs": len(ladder),
				"depth": rung.MaxDepth, "budget": rung.Budget, "explored": be.Explored,
			})
		}
	}
	return 0, last
}

// autoWorkers resolves the worker-pool width: Session.AutoWorkers when
// positive, GOMAXPROCS otherwise.
func (s *Session) autoWorkers() int {
	if s.AutoWorkers > 0 {
		return s.AutoWorkers
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Session) autoComplete(ctx context.Context, maxDepth, budget, rung, rungs int) (int, error) {
	if _, err := equiv.CommonForm(s.Op, s.Ins); err == nil {
		return 0, nil
	}
	workers := s.autoWorkers()
	s.Metrics.Set("auto.parallel.workers", "configured", int64(workers))
	vs := newVisitedSet(autoHashCheck.Load())
	start := &autoState{op: s.Op, ins: s.Ins}
	startDigest := isps.HashPair(s.Op, s.Ins)
	vs.note(startDigest, s.Op, s.Ins)
	vs.commit(startDigest)
	frontier := []*autoState{start}
	explored := 0
	for depth := 0; depth < maxDepth && len(frontier) > 0; depth++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("core: auto search after %d states: %w", explored, err)
			}
		}
		s.Metrics.Inc("auto.parallel.levels", "expanded")
		s.Metrics.Add("auto.parallel.states", "expanded", uint64(len(frontier)))
		expanded, err := s.expandFrontier(ctx, frontier, vs, workers)
		if err != nil {
			return 0, fmt.Errorf("core: auto search after %d states: %w", explored, err)
		}
		// Deterministic merge: candidates are consumed in (state, transform,
		// path) order — exactly the order a serial search would probe them —
		// so budget accounting, dedup winners, the goal choice, and the next
		// frontier are identical at every worker count.
		var next []*autoState
		for si, cands := range expanded {
			for _, cand := range cands {
				if explored++; explored > budget {
					return 0, &fault.BudgetError{
						Op: "auto-search", Depth: maxDepth, Budget: budget,
						Explored: explored - 1, Rung: rung, Rungs: rungs,
						Reason: "state budget spent before a completion was found",
					}
				}
				s.Metrics.Inc("auto.explored", cand.xform)
				if !vs.accept(cand.digest, cand.order) {
					continue // seen in an earlier level, or a within-level duplicate
				}
				// Intern only merge-accepted states: rejected candidates
				// never pay the canonicalization walk, and accepted ones
				// share structure with their frontier parents so the next
				// level's digests and Equal checks answer from memos.
				st := &autoState{op: isps.InternDesc(cand.newOp), ins: isps.InternDesc(cand.newIns), parent: frontier[si], step: cand.autoStep}
				if cand.goal {
					if cerr := vs.err(); cerr != nil {
						return 0, cerr
					}
					// Replay the trail through the session so every step is
					// validated and recorded as usual.
					trail := st.trail()
					for _, mv := range trail {
						if err := s.Apply(mv.side, mv.xform, mv.at, transform.Args{"dir": "down"}); err != nil {
							return 0, fmt.Errorf("core: auto replay failed at %s: %v", mv.xform, err)
						}
					}
					return len(trail), nil
				}
				next = append(next, st)
			}
		}
		if cerr := vs.err(); cerr != nil {
			return 0, cerr
		}
		if s.Tracer.Enabled() {
			s.Tracer.Event("auto.level", map[string]any{
				"depth": depth, "frontier": len(frontier), "next": len(next),
				"explored": explored, "visited": vs.size(), "workers": workers,
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

// expandFrontier expands every state of the current level across the worker
// pool and returns the per-state candidate lists in frontier order. Workers
// propose successor digests into the sharded visited set (minimum candidate
// order wins, see visitedSet) and pre-compute the goal check; nothing is
// committed here, so the merge phase stays the single decision point.
func (s *Session) expandFrontier(ctx context.Context, frontier []*autoState, vs *visitedSet, workers int) ([][]expCand, error) {
	results := make([][]expCand, len(frontier))
	if workers > len(frontier) {
		workers = len(frontier)
	}
	if workers <= 1 {
		for i, st := range frontier {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			results[i] = s.expandState(st, i, vs)
		}
		return results, nil
	}
	var (
		nextIdx  atomic.Int64
		ctxErr   atomic.Value
		canceled atomic.Bool
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextIdx.Add(1)) - 1
				if i >= len(frontier) || canceled.Load() {
					return
				}
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						ctxErr.Store(err)
						canceled.Store(true)
						return
					}
				}
				results[i] = s.expandState(frontier[i], i, vs)
			}
		}()
	}
	wg.Wait()
	if err, ok := ctxErr.Load().(error); ok && err != nil {
		return nil, err
	}
	return results, nil
}

// expandState enumerates one state's applicable candidates (reusing each
// probe's outcome as the successor description), digests and proposes each
// successor, and checks unseen successors for common form.
func (s *Session) expandState(st *autoState, stateIdx int, vs *visitedSet) []expCand {
	cands := s.autoCandidates(st.op, st.ins)
	out := make([]expCand, 0, len(cands))
	for ci, cand := range cands {
		newOp, newIns := st.op, st.ins
		if cand.side == OpSide {
			newOp = cand.out.Desc
		} else {
			newIns = cand.out.Desc
		}
		// Candidate order keys are (state, candidate) lexicographic and
		// start at 1; 0 is the visited set's committed sentinel.
		order := uint64(stateIdx)<<32 | uint64(ci+1)
		digest := isps.HashPair(newOp, newIns)
		vs.note(digest, newOp, newIns)
		seen := vs.propose(digest, order)
		ec := expCand{
			autoCand: cand, newOp: newOp, newIns: newIns,
			digest: digest, seen: seen, order: order,
		}
		if !seen {
			_, err := equiv.CommonForm(newOp, newIns)
			ec.goal = err == nil
		}
		out = append(out, ec)
	}
	return out
}

// nodeKind classifies a node for the candidate prefilter.
func nodeKind(n isps.Node) string {
	switch n.(type) {
	case *isps.Bin, *isps.Un:
		return "expr"
	case *isps.IfStmt:
		return "if"
	case *isps.ExitWhenStmt:
		return "exit"
	case *isps.RepeatStmt:
		return "loop"
	case *isps.AssignStmt, *isps.InputStmt, *isps.OutputStmt, *isps.AssertStmt:
		return "stmt"
	}
	return ""
}

// Shared kind lists for moveKindsOf, allocated once.
var (
	kindsIf       = []string{"if"}
	kindsExit     = []string{"exit"}
	kindsLoop     = []string{"loop"}
	kindsStmtLike = []string{"stmt", "if", "loop", "exit"}
	kindsExpr     = []string{"expr"}
)

// moveKindsOf says at which node kinds each move can possibly apply, so the
// search does not pay a full clone to discover an obvious mismatch. The
// result is an ordered slice: probe order — and with it the auto.explored
// metric stream — is identical run to run, instead of following map
// iteration order.
func moveKindsOf(name string) []string {
	switch {
	case name == "if.true", name == "if.false", name == "if.same",
		name == "if.empty", name == "if.reverse", name == "if.pull.common":
		return kindsIf
	case name == "exit.false", name == "exit.split", name == "exit.merge":
		return kindsExit
	case name == "loop.rotate.guarded":
		return kindsIf
	case name == "loop.delete.dead":
		return kindsLoop
	case name == "move.swap":
		return kindsStmtLike
	default: // expression rewrites
		return kindsExpr
	}
}

// autoCandidates enumerates the applicable moves of a state: it probes each
// transformation at each node of the matching kind and keeps the applicable
// ones — with their probe outcomes — in a deterministic order. Probes run
// inside the same recovery boundary as real applications, so a panic-prone
// candidate is skipped, not fatal; a move missing from the transformation
// registry is likewise skipped (counted as auto.skipped), and candidates
// that would introduce constraints are dropped here rather than re-probed
// later. The kind-indexed path table is built lazily from the union of
// kinds the enabled moves actually target.
func (s *Session) autoCandidates(op, ins *isps.Description) []autoCand {
	// Resolve the enabled moves and the node kinds they need, once.
	type move struct {
		name  string
		tr    *transform.Transformation
		kinds []string
		gate  func(isps.Expr) bool
	}
	moves := make([]move, 0, len(autoMoves))
	wantKind := map[string]bool{}
	for _, name := range autoMoves {
		tr, err := transform.Get(name)
		if err != nil {
			// A registry gap degrades the search instead of killing it; the
			// replay path cannot hit the gap because only probed candidates
			// are replayed.
			s.Metrics.Inc("auto.skipped", name)
			continue
		}
		kinds := moveKindsOf(name)
		moves = append(moves, move{name: name, tr: tr, kinds: kinds, gate: exprGates[name]})
		for _, k := range kinds {
			wantKind[k] = true
		}
	}
	var out []autoCand
	for _, side := range []Side{OpSide, InsSide} {
		d := ins
		if side == OpSide {
			d = op
		}
		type sited struct {
			p isps.Path
			n isps.Node
		}
		byKind := map[string][]sited{}
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			if k := nodeKind(n); k != "" && wantKind[k] {
				// Walk reuses its path buffer; retained paths must be copied.
				byKind[k] = append(byKind[k], sited{p: append(isps.Path(nil), p...), n: n})
			}
			return true
		})
		for _, mv := range moves {
			for _, kind := range mv.kinds {
				for _, c := range byKind[kind] {
					if mv.gate != nil {
						// The tree is immutable during enumeration, so the
						// walked node is exactly what the probe would see;
						// gating it skips the probe's full-description clone.
						if e, isExpr := c.n.(isps.Expr); !isExpr || !mv.gate(e) {
							continue
						}
					}
					res, err := safeTransformApply(mv.tr, d, c.p, transform.Args{"dir": "down"})
					if err != nil {
						s.noteProbe(mv.name, err)
						continue
					}
					if len(res.Constraints) > 0 {
						continue
					}
					out = append(out, autoCand{
						autoStep: autoStep{side: side, xform: mv.name, at: c.p},
						out:      res,
					})
				}
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
