package transform

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"extra/internal/interp"
	"extra/internal/isps"
)

// genDesc builds a random, always-terminating description: straight-line
// assignments, conditionals and bounded down-counting loops over a fixed
// register set, with memory reads and writes. It is the workload for the
// transformation-soundness fuzzing below.
func genDesc(rng *rand.Rand) *isps.Description {
	g := &descGen{rng: rng}
	body := &isps.Block{}
	body.Stmts = append(body.Stmts, &isps.InputStmt{Names: []string{"a", "b", "f", "k"}})
	n := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		body.Stmts = append(body.Stmts, g.stmt(2, false))
	}
	body.Stmts = append(body.Stmts, &isps.OutputStmt{
		Exprs: []isps.Expr{&isps.Ident{Name: "a"}, &isps.Ident{Name: "b"}, &isps.Ident{Name: "f"}},
	})
	return &isps.Description{
		Name: "fuzz.operation",
		Sections: []*isps.Section{{
			Name: "S",
			Decls: []isps.Decl{
				&isps.RegDecl{Name: "a", Width: 0},
				&isps.RegDecl{Name: "b", Width: 0},
				&isps.RegDecl{Name: "c", Width: 16},
				&isps.RegDecl{Name: "f", Width: 1},
				&isps.RegDecl{Name: "g", Width: 1},
				&isps.RegDecl{Name: "k", Width: 8},
				&isps.RoutineDecl{Name: "fuzz.execute", Body: body},
			},
		}},
	}
}

type descGen struct {
	rng *rand.Rand
}

var fuzzVars = []string{"a", "b", "c", "f", "g"}

func (g *descGen) stmt(depth int, inLoop bool) isps.Stmt {
	max := 4
	if depth <= 0 {
		max = 2
	}
	switch g.rng.Intn(max) {
	case 0, 1:
		// Assignment to a register or memory.
		if g.rng.Intn(4) == 0 {
			return &isps.AssignStmt{
				LHS: &isps.Mem{Addr: g.addr()},
				RHS: g.expr(depth),
			}
		}
		return &isps.AssignStmt{
			LHS: &isps.Ident{Name: fuzzVars[g.rng.Intn(len(fuzzVars))]},
			RHS: g.expr(depth),
		}
	case 2:
		thenN, elseN := 1+g.rng.Intn(2), g.rng.Intn(2)
		ifs := &isps.IfStmt{Cond: g.expr(depth - 1), Then: &isps.Block{}, Else: &isps.Block{}}
		for i := 0; i < thenN; i++ {
			ifs.Then.Stmts = append(ifs.Then.Stmts, g.stmt(depth-1, inLoop))
		}
		for i := 0; i < elseN; i++ {
			ifs.Else.Stmts = append(ifs.Else.Stmts, g.stmt(depth-1, inLoop))
		}
		return ifs
	default:
		// A bounded loop: k counts down to zero; the body never writes k.
		body := &isps.Block{Stmts: []isps.Stmt{
			&isps.ExitWhenStmt{Cond: &isps.Bin{Op: isps.OpEq, X: &isps.Ident{Name: "k"}, Y: &isps.Num{Val: 0}}},
		}}
		for i := 0; i < 1+g.rng.Intn(2); i++ {
			body.Stmts = append(body.Stmts, g.stmt(depth-1, true))
		}
		body.Stmts = append(body.Stmts, &isps.AssignStmt{
			LHS: &isps.Ident{Name: "k"},
			RHS: &isps.Bin{Op: isps.OpSub, X: &isps.Ident{Name: "k"}, Y: &isps.Num{Val: 1}},
		})
		return &isps.RepeatStmt{Body: body}
	}
}

func (g *descGen) addr() isps.Expr {
	// Addresses within a small window keep reads and writes colliding.
	return &isps.Bin{Op: isps.OpAdd,
		X: &isps.Ident{Name: "c"},
		Y: &isps.Num{Val: int64(g.rng.Intn(8))}}
}

func (g *descGen) expr(depth int) isps.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return &isps.Num{Val: int64(g.rng.Intn(5))}
		case 1:
			return &isps.Mem{Addr: g.addr()}
		default:
			return &isps.Ident{Name: fuzzVars[g.rng.Intn(len(fuzzVars))]}
		}
	}
	ops := []isps.Op{isps.OpAdd, isps.OpSub, isps.OpMul, isps.OpEq, isps.OpNe,
		isps.OpLt, isps.OpGt, isps.OpLe, isps.OpGe, isps.OpAnd, isps.OpOr, isps.OpXor}
	if g.rng.Intn(5) == 0 {
		return &isps.Un{Op: isps.OpNot, X: g.expr(depth - 1)}
	}
	return &isps.Bin{Op: ops[g.rng.Intn(len(ops))], X: g.expr(depth - 1), Y: g.expr(depth - 1)}
}

// runFuzz executes a description on a derived random state.
func runFuzz(d *isps.Description, seed int64) ([]uint64, map[uint64]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	st := interp.NewState()
	for a := uint64(0); a < 32; a++ {
		st.Store(a, byte(rng.Intn(8)))
	}
	in := []uint64{rng.Uint64() % 16, rng.Uint64() % 16, rng.Uint64() % 2, rng.Uint64() % 6}
	res, err := interp.Run(context.Background(), d, in, st, 1<<16)
	if err != nil {
		return nil, nil, err
	}
	mem := map[uint64]byte{}
	for a := uint64(0); a < 32; a++ {
		mem[a] = st.Load(a)
	}
	return res.Outputs, mem, nil
}

// TestFuzzRoundTrip checks Format/Parse stability on random descriptions.
func TestFuzzRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		d := genDesc(rng)
		if err := isps.Validate(d); err != nil {
			t.Fatalf("round %d: generated invalid description: %v", round, err)
		}
		text := isps.Format(d)
		d2, err := isps.Parse(text)
		if err != nil {
			t.Fatalf("round %d: reparse failed: %v\n%s", round, err, text)
		}
		if got := isps.Format(d2); got != text {
			t.Fatalf("round %d: formatting unstable:\n%s\nvs\n%s", round, text, got)
		}
		if !isps.Equal(d, d2) {
			t.Fatalf("round %d: reparse differs", round)
		}
	}
}

// TestFuzzInterpreterDeterminism checks the interpreter is a function of
// its inputs.
func TestFuzzInterpreterDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 100; round++ {
		d := genDesc(rng)
		o1, m1, err1 := runFuzz(d, int64(round))
		o2, m2, err2 := runFuzz(d, int64(round))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("round %d: nondeterministic errors", round)
		}
		if err1 != nil {
			continue
		}
		if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(m1, m2) {
			t.Fatalf("round %d: nondeterministic execution", round)
		}
	}
}

// arglessPreserving lists every transformation that needs no arguments and
// claims to preserve semantics; the fuzzer applies each wherever it is
// applicable and verifies the claim by differential execution.
func arglessPreserving() []*Transformation {
	skip := map[string]bool{
		// These need arguments.
		"loop.exit.witness":   true,
		"loop.move.increment": true, "loop.countdown.intro": true,
		"loop.induction.index": true, "loop.induction.merge": true,
		"loop.dowhile.count": true, "loop.reverse.copy": true,
		"global.const.prop": true, "global.copy.prop": true,
		"global.dead.decl": true, "global.rename": true,
		"global.flag.invert": true, "routine.inline": true,
		"routine.remove": true, "constraint.fix": true,
		"constraint.offset": true, "constraint.assert.range": true,
		"constraint.assert.pred": true, "constraint.assert.remove": true,
		"augment.prologue": true, "augment.epilogue": true,
		"input.reorder": true,
	}
	var out []*Transformation
	for _, tr := range All() {
		if tr.Effect == Preserving && !skip[tr.Name] {
			out = append(out, tr)
		}
	}
	return out
}

// TestFuzzPreservingTransformations is the library's big soundness net:
// for hundreds of random descriptions, every applicable argless preserving
// transformation is applied at every node, and the result must compute the
// same outputs and memory as the original on randomized machine states.
func TestFuzzPreservingTransformations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trs := arglessPreserving()
	if len(trs) < 35 {
		t.Fatalf("only %d argless preserving transformations found", len(trs))
	}
	applied := map[string]int{}
	for round := 0; round < 150; round++ {
		d := genDesc(rng)
		var paths []isps.Path
		isps.Walk(d, func(n isps.Node, p isps.Path) bool {
			paths = append(paths, append(isps.Path(nil), p...))
			return true
		})
		for _, tr := range trs {
			args := Args{"dir": "down"}
			if tr.Name == "move.hoist.expr" {
				args = Args{"temp": "zz", "width": "8"}
			}
			for _, p := range paths {
				out, err := tr.Apply(d, p, args)
				if err != nil {
					continue
				}
				applied[tr.Name]++
				if err := isps.Validate(out.Desc); err != nil {
					t.Fatalf("round %d: %s at %s produced invalid description: %v",
						round, tr.Name, p, err)
				}
				for seed := int64(0); seed < 4; seed++ {
					o1, m1, err1 := runFuzz(d, seed*31+int64(round))
					o2, m2, err2 := runFuzz(out.Desc, seed*31+int64(round))
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("round %d: %s at %s changed error behaviour: %v vs %v\nbefore:\n%s\nafter:\n%s",
							round, tr.Name, p, err1, err2, isps.Format(d), isps.Format(out.Desc))
					}
					if err1 != nil {
						continue
					}
					if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(m1, m2) {
						t.Fatalf("round %d seed %d: %s at %s changed semantics\nbefore:\n%s\nafter:\n%s",
							round, seed, tr.Name, p, isps.Format(d), isps.Format(out.Desc))
					}
				}
			}
		}
	}
	// The fuzz corpus must actually exercise a spread of the library.
	hits := 0
	for _, tr := range trs {
		if applied[tr.Name] > 0 {
			hits++
		}
	}
	if hits < 15 {
		t.Errorf("fuzzing exercised only %d transformations: %v", hits, applied)
	}
}
