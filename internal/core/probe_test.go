package core

import (
	"slices"
	"testing"

	"extra/internal/transform"
)

// TestMoveTablesRegistered: every move Normalize or the search probes names
// a registered transformation, and each table holds that registry entry
// (not a copy, so a test that swaps an entry's Apply reaches the probes)
// under every node kind the move can apply at, in list order.
func TestMoveTablesRegistered(t *testing.T) {
	for _, tc := range []struct {
		what  string
		names []string
		table *moveTable
	}{
		{"reducingTransforms", reducingTransforms, normalizeMoves},
		{"autoMoves", autoMoves, searchMoves},
	} {
		if len(tc.table.moves) != len(tc.names) {
			t.Fatalf("%s: %d moves in the table, %d names", tc.what, len(tc.table.moves), len(tc.names))
		}
		var want [numKinds][]int
		for i, name := range tc.names {
			tr, err := transform.Get(name)
			if err != nil {
				t.Errorf("%s[%d]: %v", tc.what, i, err)
				continue
			}
			if tc.table.moves[i] != tr {
				t.Errorf("%s[%d]: the table holds another entry than the registry's %s", tc.what, i, name)
			}
			for _, k := range moveKindsOf(name) {
				want[k] = append(want[k], i)
			}
		}
		for k := range want {
			if !slices.Equal(tc.table.byKind[k], want[k]) {
				t.Errorf("%s: kind %d lists moves %v, want %v", tc.what, k, tc.table.byKind[k], want[k])
			}
		}
	}
}
