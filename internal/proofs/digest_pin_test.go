package proofs

import (
	"fmt"
	"hash/fnv"
	"testing"

	"extra/internal/isps"
)

// TestDigestsPinned pins the structural digests: isps.Hash of every node of
// every corpus description and intermediate catalog state, in isps.Visit
// pre-order, folded into one FNV-64a value. The interner, the auto-search's
// visited set and the analysis cache all key on these digests, so a change
// to how a node is hashed must not move one.
func TestDigestsPinned(t *testing.T) {
	const want, wantNodes = "58d536ab0c133fee", 19382
	_, states := livenessStates(t)
	h := fnv.New64a()
	nodes := 0
	for _, d := range states {
		isps.Visit(d, func(n isps.Node) bool {
			dg := isps.Hash(n)
			fmt.Fprintf(h, "%x%x", dg.Hi, dg.Lo)
			nodes++
			return true
		})
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want || nodes != wantNodes {
		t.Errorf("%d states, %d nodes: digest fold %s, want %s over %d nodes", len(states), nodes, got, want, wantNodes)
	}
}
