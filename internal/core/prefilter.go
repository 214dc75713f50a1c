package core

import (
	"extra/internal/isps"
	"extra/internal/transform"
)

// Probe prefilters. Probing a transformation at a node where its pattern
// cannot match still costs a resolve, a failed precondition and its error.
// Each gate below is a necessary structural condition of its
// transformation's precondition, evaluated on the original (immutable)
// tree: when the gate says no, the transformation is guaranteed to refuse,
// so the probe is skipped. When the gate says yes the probe still runs and
// still decides; semantic conditions (purity, boolean-valuedness) stay with
// the transformation.
//
// Soundness is load-bearing: a gate that rejects a node the transformation
// would accept silently changes search and normalization results.
// TestExprGatesSound checks every gate against its transformation over the
// whole proof corpus, and TestStmtGatesSound the statement gates over every
// intermediate state of the catalog analyses too.

// move is one transformation Normalize or the auto-search probes, resolved
// once: its registry entry, the node kinds it can apply at, and its gate.
type move struct {
	name  string
	tr    *transform.Transformation
	kinds []string
	gate  func(isps.Node) bool
}

func newMove(name string) (move, error) {
	tr, err := transform.Get(name)
	if err != nil {
		return move{}, err
	}
	return move{name: name, tr: tr, kinds: moveKindsOf(name), gate: moveGates[name]}, nil
}

// admits reports whether the move may apply at node n of the given kind.
func (mv *move) admits(n isps.Node, kind string) bool {
	for _, k := range mv.kinds {
		if k == kind {
			return mv.gate == nil || mv.gate(n)
		}
	}
	return false
}

func gateNum(e isps.Node) bool {
	_, ok := e.(*isps.Num)
	return ok
}

func gateNumVal(e isps.Node, v int64) bool {
	n, ok := e.(*isps.Num)
	return ok && n.Val == v
}

func gateBin(e isps.Node, op isps.Op) (*isps.Bin, bool) {
	b, ok := e.(*isps.Bin)
	if !ok || b.Op != op {
		return nil, false
	}
	return b, true
}

func gateUn(e isps.Node, op isps.Op) (*isps.Un, bool) {
	u, ok := e.(*isps.Un)
	if !ok || u.Op != op {
		return nil, false
	}
	return u, true
}

// gateIfConst passes a conditional whose condition is a constant of the
// truth value if.true (want) or if.false (!want) folds.
func gateIfConst(n isps.Node, want bool) bool {
	s, ok := n.(*isps.IfStmt)
	if !ok {
		return false
	}
	c, ok := s.Cond.(*isps.Num)
	return ok && (c.Val != 0) == want
}

// moveGates maps each gated transformation to its structural gate: the
// expression rewrites, and the constant folds of conditionals and exits,
// which Normalize probes at every if and exit_when. A transformation
// without an entry is probed at every node of its kinds, so forgetting one
// here costs speed, never correctness.
var moveGates = map[string]func(isps.Node) bool{
	"if.true":  func(n isps.Node) bool { return gateIfConst(n, true) },
	"if.false": func(n isps.Node) bool { return gateIfConst(n, false) },
	"exit.false": func(n isps.Node) bool {
		s, ok := n.(*isps.ExitWhenStmt)
		return ok && gateNumVal(s.Cond, 0)
	},
	"fold.add": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpAdd)
		return ok && gateNum(b.X) && gateNum(b.Y)
	},
	"fold.sub": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpSub)
		return ok && gateNum(b.X) && gateNum(b.Y)
	},
	"fold.mul": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpMul)
		return ok && gateNum(b.X) && gateNum(b.Y)
	},
	"fold.div": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpDiv)
		return ok && gateNum(b.X) && gateNum(b.Y)
	},
	"fold.compare": func(e isps.Node) bool {
		b, ok := e.(*isps.Bin)
		return ok && b.Op.IsComparison() && gateNum(b.X) && gateNum(b.Y)
	},
	"fold.not": func(e isps.Node) bool {
		u, ok := gateUn(e, isps.OpNot)
		return ok && gateNum(u.X)
	},
	"fold.logic": func(e isps.Node) bool {
		b, ok := e.(*isps.Bin)
		return ok && b.Op.IsBoolean() && gateNum(b.X) && gateNum(b.Y)
	},
	"simplify.and.true": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpAnd)
		return ok && (gateNum(b.X) || gateNum(b.Y))
	},
	"simplify.and.false": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpAnd)
		return ok && (gateNumVal(b.X, 0) || gateNumVal(b.Y, 0))
	},
	"simplify.or.false": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpOr)
		return ok && (gateNumVal(b.X, 0) || gateNumVal(b.Y, 0))
	},
	"simplify.or.true": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpOr)
		return ok && (gateNum(b.X) || gateNum(b.Y))
	},
	"simplify.xor.false": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpXor)
		return ok && (gateNumVal(b.X, 0) || gateNumVal(b.Y, 0))
	},
	"simplify.not.not": func(e isps.Node) bool {
		u, ok := gateUn(e, isps.OpNot)
		if !ok {
			return false
		}
		_, ok = gateUn(u.X, isps.OpNot)
		return ok
	},
	"simplify.add.zero": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpAdd)
		return ok && (gateNumVal(b.X, 0) || gateNumVal(b.Y, 0))
	},
	"simplify.sub.zero": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpSub)
		return ok && gateNumVal(b.Y, 0)
	},
	"simplify.sub.self": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpSub)
		return ok && isps.Equal(b.X, b.Y)
	},
	"simplify.mul.one": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpMul)
		return ok && (gateNumVal(b.X, 1) || gateNumVal(b.Y, 1))
	},
	"simplify.mul.zero": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpMul)
		return ok && (gateNumVal(b.X, 0) || gateNumVal(b.Y, 0))
	},
	"simplify.div.one": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpDiv)
		return ok && gateNumVal(b.Y, 1)
	},
	"simplify.and.self": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpAnd)
		return ok && isps.Equal(b.X, b.Y)
	},
	"simplify.or.self": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpOr)
		return ok && isps.Equal(b.X, b.Y)
	},
	"rewrite.subeq": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpEq)
		if !ok || !gateNumVal(b.Y, 0) {
			return false
		}
		_, ok = gateBin(b.X, isps.OpSub)
		return ok
	},
	"rewrite.commute.rel": func(e isps.Node) bool {
		b, ok := e.(*isps.Bin)
		return ok && b.Op.IsComparison()
	},
	"rewrite.commute.add": func(e isps.Node) bool {
		_, ok := gateBin(e, isps.OpAdd)
		return ok
	},
	"rewrite.commute.logic": func(e isps.Node) bool {
		b, ok := e.(*isps.Bin)
		return ok && b.Op.IsBoolean()
	},
	"rewrite.assoc.add": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpAdd)
		if !ok {
			return false
		}
		_, ok = gateBin(b.X, isps.OpAdd)
		return ok
	},
	"rewrite.assoc.sub": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpSub)
		if !ok {
			return false
		}
		_, ok = gateBin(b.X, isps.OpAdd)
		return ok
	},
	"rewrite.addsub.cancel": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpSub)
		if !ok {
			return false
		}
		_, ok = gateBin(b.X, isps.OpAdd)
		return ok
	},
	"rewrite.subadd.cancel": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpAdd)
		if !ok {
			return false
		}
		_, ok = gateBin(b.X, isps.OpSub)
		return ok
	},
	"rewrite.demorgan.and": func(e isps.Node) bool {
		u, ok := gateUn(e, isps.OpNot)
		if !ok {
			return false
		}
		_, ok = gateBin(u.X, isps.OpAnd)
		return ok
	},
	"rewrite.demorgan.or": func(e isps.Node) bool {
		u, ok := gateUn(e, isps.OpNot)
		if !ok {
			return false
		}
		_, ok = gateBin(u.X, isps.OpOr)
		return ok
	},
	"rewrite.not.rel": func(e isps.Node) bool {
		u, ok := gateUn(e, isps.OpNot)
		if !ok {
			return false
		}
		b, ok := u.X.(*isps.Bin)
		return ok && b.Op.IsComparison()
	},
	"rewrite.neg.neg": func(e isps.Node) bool {
		u, ok := gateUn(e, isps.OpNeg)
		if !ok {
			return false
		}
		_, ok = gateUn(u.X, isps.OpNeg)
		return ok
	},
	"rewrite.add.neg": func(e isps.Node) bool {
		b, ok := gateBin(e, isps.OpAdd)
		if !ok {
			return false
		}
		_, ok = gateUn(b.Y, isps.OpNeg)
		return ok
	},
	"rewrite.eq.le.zero": func(e isps.Node) bool {
		b, ok := e.(*isps.Bin)
		return ok && (b.Op == isps.OpEq || b.Op == isps.OpLe) && gateNumVal(b.Y, 0)
	},
	"rewrite.ne.to.gt": func(e isps.Node) bool {
		b, ok := e.(*isps.Bin)
		return ok && (b.Op == isps.OpNe || b.Op == isps.OpGt) && gateNumVal(b.Y, 0)
	},
	"rewrite.zero.lt": func(e isps.Node) bool {
		b, ok := e.(*isps.Bin)
		if !ok {
			return false
		}
		return (b.Op == isps.OpLt && gateNumVal(b.X, 0)) ||
			(b.Op == isps.OpNe && gateNumVal(b.Y, 0))
	},
}
