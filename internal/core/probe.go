package core

import (
	"time"

	"extra/internal/isps"
	"extra/internal/obs"
	"extra/internal/transform"
)

// Normalize and the auto-search probe their moves the same way: one walk
// collects the sites of a description, the nodes of a kind some move can
// apply at; each move of that kind is probed at each site its
// transformation's Gate admits, inside the session's fault boundary; and
// what the probes refuse is counted in locals and recorded once.

// kind classifies a node for the site index.
type kind uint8

const (
	kindNone kind = iota
	kindExpr
	kindIf
	kindExit
	kindLoop
	kindStmt
	numKinds
)

// nodeKind classifies a node for the site index.
func nodeKind(n isps.Node) kind {
	switch n.(type) {
	case *isps.Bin, *isps.Un:
		return kindExpr
	case *isps.IfStmt:
		return kindIf
	case *isps.ExitWhenStmt:
		return kindExit
	case *isps.RepeatStmt:
		return kindLoop
	case *isps.AssignStmt, *isps.InputStmt, *isps.OutputStmt, *isps.AssertStmt:
		return kindStmt
	}
	return kindNone
}

// moveKindsOf says at which node kinds each move can possibly apply, so a
// probe never pays for an obvious mismatch.
func moveKindsOf(name string) []kind {
	switch {
	case name == "if.true", name == "if.false", name == "if.same",
		name == "if.empty", name == "if.reverse", name == "if.pull.common",
		name == "loop.rotate.guarded":
		return []kind{kindIf}
	case name == "exit.false", name == "exit.split", name == "exit.merge":
		return []kind{kindExit}
	case name == "loop.delete.dead":
		return []kind{kindLoop}
	case name == "move.swap":
		return []kind{kindStmt, kindIf, kindLoop, kindExit}
	default: // expression rewrites
		return []kind{kindExpr}
	}
}

// moveTable is a list of moves resolved once per process: each move's
// registry entry, and for each node kind the moves that can apply there,
// in list order.
type moveTable struct {
	moves  []*transform.Transformation
	byKind [numKinds][]int
}

// The move tables of Normalize and the search. A name missing from the
// transformation registry stops the process as it starts (every name is
// checked by TestMoveTablesRegistered).
var (
	normalizeMoves = newMoveTable(reducingTransforms)
	searchMoves    = newMoveTable(autoMoves)
)

func newMoveTable(names []string) *moveTable {
	t := &moveTable{}
	for i, name := range names {
		tr, err := transform.Get(name)
		if err != nil {
			panic("core: move table: " + err.Error())
		}
		t.moves = append(t.moves, tr)
		for _, k := range moveKindsOf(name) {
			t.byKind[k] = append(t.byKind[k], i)
		}
	}
	return t
}

// site is a node some move of a table can apply at: its path, the node and
// its kind.
type site struct {
	p    isps.Path
	n    isps.Node
	kind kind
}

// prober probes one move table's moves for one Normalize or one search. It
// counts what the search explores and what the probes refuse in locals;
// flush records the counts in the metrics registry once, whichever way the
// caller returns.
type prober struct {
	t *moveTable
	// timed says whether probe times the applications: Normalize commits
	// a probe as a step, which records how long it took; the search
	// commits its trail untimed.
	timed  bool
	counts []probeCounts // indexed like t.moves
	sites  []site        // the last walk's sites, reused by the next walk
}

// probeCounts is one move's share of a search or a normalization:
// candidates charged to the search's budget (auto.explored), and probes
// refused by a precondition (transform.precond) or failing otherwise
// (transform.error).
type probeCounts struct {
	explored, precond, errs uint64
}

func newProber(t *moveTable, timed bool) *prober {
	return &prober{t: t, timed: timed, counts: make([]probeCounts, len(t.moves))}
}

// walk returns the sites of d in walk order (pre-order, which is path
// order). The slice is the prober's and is overwritten by its next walk;
// each site's path is its own.
func (pr *prober) walk(d *isps.Description) []site {
	pr.sites = pr.sites[:0]
	isps.Walk(d, func(n isps.Node, p isps.Path) bool {
		if k := nodeKind(n); len(pr.t.byKind[k]) > 0 {
			// Walk reuses its path buffer; retained paths must be copied.
			pr.sites = append(pr.sites, site{p: append(isps.Path(nil), p...), n: n, kind: k})
		}
		return true
	})
	return pr.sites
}

// probe applies move i at path p of d, where n is the node at p, when the
// move's Gate admits n. It returns the outcome and, for a timed prober, how
// long the application took, or nil when the gate or the transformation
// refused or the application failed; refusals and failures are counted.
// The application runs inside the same recovery boundary as a scripted
// step's, so a panicking move is counted and skipped, not fatal.
func (pr *prober) probe(i int, d *isps.Description, n isps.Node, p isps.Path) (*transform.Outcome, time.Duration) {
	tr := pr.t.moves[i]
	if tr.Gate != nil && !tr.Gate(n) {
		return nil, 0
	}
	var start time.Time
	if pr.timed {
		start = time.Now()
	}
	out, err := safeTransformApply(tr, d, p, nil)
	var dur time.Duration
	if pr.timed {
		dur = time.Since(start)
	}
	if err != nil {
		if _, ok := transform.AsPrecond(err); ok {
			pr.counts[i].precond++
		} else {
			pr.counts[i].errs++
		}
		return nil, 0
	}
	return out, dur
}

// flush records the counts; a move with nothing to record adds no series.
func (pr *prober) flush(m *obs.Registry) {
	for i, c := range pr.counts {
		name := pr.t.moves[i].Name
		if c.explored > 0 {
			m.Add("auto.explored", name, c.explored)
		}
		if c.precond > 0 {
			m.Add("transform.precond", name, c.precond)
		}
		if c.errs > 0 {
			m.Add("transform.error", name, c.errs)
		}
	}
}
