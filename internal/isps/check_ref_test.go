package isps

import (
	"fmt"
	"math/rand"
	"testing"
)

// refValidate is the closure-walk Validate the package shipped before its
// one-walk checker: a map of declarations, a Walk per body for the name
// checks, then a separate pass for exits outside loops.
func refValidate(d *Description) error {
	routines := 0
	declared := map[string]Decl{}
	for _, s := range d.Sections {
		for _, dec := range s.Decls {
			name := dec.DeclName()
			if IsKeyword(name) {
				return fmt.Errorf("isps: %s: reserved word %q declared", d.Name, name)
			}
			if prev, dup := declared[name]; dup {
				return fmt.Errorf("isps: %s: %q declared twice (%T and %T)", d.Name, name, prev, dec)
			}
			declared[name] = dec
			if _, ok := dec.(*RoutineDecl); ok {
				routines++
			}
		}
	}
	if routines != 1 {
		return fmt.Errorf("isps: %s: want exactly 1 routine, have %d", d.Name, routines)
	}
	check := func(owner string, body *Block, isFunc bool) error {
		var err error
		Walk(body, func(n Node, p Path) bool {
			if err != nil {
				return false
			}
			switch x := n.(type) {
			case *Ident:
				dec, ok := declared[x.Name]
				if !ok {
					err = fmt.Errorf("isps: %s: %s uses undeclared name %q", d.Name, owner, x.Name)
					return false
				}
				if _, isRoutine := dec.(*RoutineDecl); isRoutine {
					err = fmt.Errorf("isps: %s: %s references routine %q as a value", d.Name, owner, x.Name)
					return false
				}
			case *Call:
				dec, ok := declared[x.Name]
				if !ok {
					err = fmt.Errorf("isps: %s: %s calls undeclared function %q", d.Name, owner, x.Name)
					return false
				}
				if _, isFn := dec.(*FuncDecl); !isFn {
					err = fmt.Errorf("isps: %s: %s calls %q, which is not a function", d.Name, owner, x.Name)
					return false
				}
				if isFunc {
					err = fmt.Errorf("isps: %s: function %s calls %s(); nested calls are not allowed", d.Name, owner, x.Name)
					return false
				}
			case *InputStmt:
				for _, nm := range x.Names {
					if _, ok := declared[nm]; !ok {
						err = fmt.Errorf("isps: %s: input operand %q is undeclared", d.Name, nm)
						return false
					}
				}
			case *AssignStmt:
				if id, ok := x.LHS.(*Ident); ok {
					if fd, isFn := declared[id.Name].(*FuncDecl); isFn && fd.Name != owner {
						err = fmt.Errorf("isps: %s: %s assigns to function %q outside its body", d.Name, owner, id.Name)
						return false
					}
				}
			}
			return true
		})
		if err != nil {
			return err
		}
		return refCheckExits(d.Name, owner, body, false)
	}
	for _, s := range d.Sections {
		for _, dec := range s.Decls {
			switch x := dec.(type) {
			case *FuncDecl:
				if err := check(x.Name, x.Body, true); err != nil {
					return err
				}
			case *RoutineDecl:
				if err := check(x.Name, x.Body, false); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func refCheckExits(desc, owner string, b *Block, inLoop bool) error {
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *ExitWhenStmt:
			if !inLoop {
				return fmt.Errorf("isps: %s: %s has exit_when (%s) outside any repeat loop",
					desc, owner, ExprString(st.Cond))
			}
		case *IfStmt:
			if err := refCheckExits(desc, owner, st.Then, inLoop); err != nil {
				return err
			}
			if err := refCheckExits(desc, owner, st.Else, inLoop); err != nil {
				return err
			}
		case *RepeatStmt:
			if err := refCheckExits(desc, owner, st.Body, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestValidateMatchesReference: Validate returns the reference's verdict,
// message for message, on scasb with one to three seeded mutations: names
// swapped for undeclared, register, function and routine names, calls to
// non-functions, assignments to functions, exits moved out of loops,
// duplicate and reserved declarations, and several of these in one
// description, so the order the checks report in is compared too.
func TestValidateMatchesReference(t *testing.T) {
	names := []string{"zzz", "di", "cx", "fetch", "scasb.execute", "rf", "al", "repeat"}
	rng := rand.New(rand.NewSource(1))
	failed := 0
	for round := 0; round < 2000; round++ {
		d := MustParse(scasbSrc)
		for k := 0; k < 1+rng.Intn(3); k++ {
			var paths []Path
			Walk(d, func(n Node, p Path) bool {
				paths = append(paths, append(Path(nil), p...))
				return true
			})
			p := paths[rng.Intn(len(paths))]
			n, err := Resolve(d, p)
			if err != nil {
				t.Fatal(err)
			}
			nm := names[rng.Intn(len(names))]
			var repl Node
			switch x := n.(type) {
			case *Ident:
				repl = &Ident{Name: nm}
			case *Call:
				repl = &Call{Name: nm}
			case *InputStmt:
				repl = &InputStmt{Names: append(append([]string(nil), x.Names...), nm)}
			case *AssignStmt:
				if rng.Intn(2) == 0 {
					repl = &AssignStmt{LHS: &Ident{Name: nm}, RHS: x.RHS}
				} else {
					repl = &ExitWhenStmt{Cond: x.RHS}
				}
			case Stmt:
				repl = &ExitWhenStmt{Cond: &Ident{Name: nm}}
			case *RegDecl:
				repl = &RegDecl{Name: nm, Width: 3}
			}
			if repl == nil {
				continue
			}
			if nd, err := ReplaceAt(d, p, repl); err == nil {
				d = nd.(*Description)
			}
		}
		got, want := Validate(d), refValidate(d)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Validate = %v\nreference %v\non:\n%s", got, want, Format(d))
		}
		if want != nil {
			failed++
		}
	}
	if failed < 500 || failed > 1950 {
		t.Fatalf("%d of 2000 mutants are invalid; the mutations no longer exercise both verdicts", failed)
	}
}
