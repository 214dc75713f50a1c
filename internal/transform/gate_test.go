package transform_test

import (
	"testing"

	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/transform"
)

// constFolds has a conditional and an exit on each kind of constant; the
// catalog folds only if 0.
const constFolds = `c.operation := begin
** S **
  x: integer,
  c.execute := begin
    input (x);
    if 1 then x <- 1; end_if;
    if 7 then x <- 2; else x <- 3; end_if;
    if 'a' then x <- 4; end_if;
    if 0 then x <- 5; else x <- 6; end_if;
    if x then x <- 7; end_if;
    repeat
      exit_when (0);
      exit_when (x = 0);
      x <- x - 1;
      exit_when (1);
    end_repeat;
    output (x);
  end
end`

// gateStates returns the unit tables' expressions, constFolds and every
// corpus description.
func gateStates() []*isps.Description {
	states := []*isps.Description{transform.UnitTables(), isps.MustParse(constFolds)}
	for _, e := range machines.All() {
		states = append(states, machines.Get(e.Instruction))
	}
	for _, e := range langops.All() {
		states = append(states, langops.Get(e.Name))
	}
	return states
}

// TestGatesSound: a transformation's Gate passes every node the
// transformation applies at, and every gated transformation applies
// somewhere, over gateStates. (The converse is not required: a gate may
// pass where the transformation still refuses on a semantic condition.)
// Normalize and the search skip a site whose gate fails, so a gate that
// rejected a node its transformation accepts would silently drop a
// candidate. core's TestExprGatesSound and TestStmtGatesSound check the
// gates over every state the catalog analyses pass through.
func TestGatesSound(t *testing.T) {
	var gated []*transform.Transformation
	for _, tr := range transform.All() {
		if tr.Gate != nil {
			gated = append(gated, tr)
		}
	}
	applied, total := map[string]int{}, 0
	for _, d := range gateStates() {
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			for _, tr := range gated {
				if _, err := tr.Apply(d, p, nil); err != nil {
					continue
				}
				applied[tr.Name]++
				total++
				if !tr.Gate(n) {
					t.Errorf("%s applies at %s of %s but its gate rejects the node", tr.Name, p, d.Name)
				}
			}
			return true
		})
	}
	for _, tr := range gated {
		if applied[tr.Name] == 0 {
			t.Errorf("%s applies nowhere; the states no longer exercise its gate", tr.Name)
		}
	}
	t.Logf("%d gated transformations, %d applications", len(gated), total)
}
