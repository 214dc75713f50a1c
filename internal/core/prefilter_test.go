package core

import (
	"testing"

	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/transform"
)

// TestExprGatesRegistered: every gate names a real transformation — a typo
// in the table would silently gate nothing.
func TestExprGatesRegistered(t *testing.T) {
	for name := range moveGates {
		if _, err := transform.Get(name); err != nil {
			t.Errorf("moveGates[%q] names no registered transformation: %v", name, err)
		}
	}
}

// TestExprGatesSound: over every expression node of the whole corpus, a
// transformation that succeeds must have passed its gate. (The converse is
// not required — a gate may pass where the transformation still refuses on
// a semantic condition.) A failure here means the gate is rejecting real
// candidates and silently changing search results.
func TestExprGatesSound(t *testing.T) {
	var sources []string
	for _, e := range machines.All() {
		sources = append(sources, e.Source)
	}
	for _, e := range langops.All() {
		sources = append(sources, e.Source)
	}
	checked := 0
	for _, src := range sources {
		d := isps.MustParse(src)
		type site struct {
			p isps.Path
			e isps.Expr
		}
		var exprs []site
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			if e, ok := n.(isps.Expr); ok {
				exprs = append(exprs, site{p: append(isps.Path(nil), p...), e: e})
			}
			return true
		})
		for name, gate := range moveGates {
			tr, err := transform.Get(name)
			if err != nil {
				continue // TestExprGatesRegistered reports this
			}
			for _, s := range exprs {
				if _, err := tr.Apply(d, s.p, nil); err == nil {
					checked++
					if !gate(s.e) {
						t.Errorf("%s applies at %s (%s) but its gate rejects the node",
							name, s.p, isps.ExprString(s.e))
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no applicable (transform, node) pairs found; corpus or walk broken")
	}
}
