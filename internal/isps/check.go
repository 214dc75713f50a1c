package isps

import "fmt"

// Validate performs static checks on a description:
//
//   - exactly one routine declaration (the entry point);
//   - no duplicate declarations;
//   - every identifier, call and input operand refers to a declaration;
//   - every called name is a function, every assigned name a register;
//   - exit_when appears only inside a repeat loop (exits inside functions
//     must have their own enclosing loop);
//   - functions do not call themselves or other functions (the paper's
//     language has no aliasing and, in all its figures, straight-line
//     helper functions).
//
// Each body is checked in one pre-order walk. Within a body, a name error
// is reported before an exit_when outside any loop, wherever the two occur.
// Every committed step is validated, and a description declares a dozen
// names or so, so names are looked up by a scan of the declarations, not
// in a map built per call.
func Validate(d *Description) error {
	routines, n := 0, 0
	for _, s := range d.Sections {
		n += len(s.Decls)
	}
	decls := make(declTable, 0, n)
	for _, s := range d.Sections {
		for _, dec := range s.Decls {
			name := dec.DeclName()
			if IsKeyword(name) {
				return fmt.Errorf("isps: %s: reserved word %q declared", d.Name, name)
			}
			if prev := decls.lookup(name); prev != nil {
				return fmt.Errorf("isps: %s: %q declared twice (%T and %T)", d.Name, name, prev, dec)
			}
			decls = append(decls, declared{name, dec})
			if _, ok := dec.(*RoutineDecl); ok {
				routines++
			}
		}
	}
	if routines != 1 {
		return fmt.Errorf("isps: %s: want exactly 1 routine, have %d", d.Name, routines)
	}
	for _, s := range d.Sections {
		for _, dec := range s.Decls {
			c := checker{desc: d.Name, decls: decls}
			switch x := dec.(type) {
			case *FuncDecl:
				c.owner, c.isFunc = x.Name, true
				if err := c.body(x.Body); err != nil {
					return err
				}
			case *RoutineDecl:
				c.owner = x.Name
				if err := c.body(x.Body); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// declTable is a description's declarations in order, names distinct.
type declTable []declared

type declared struct {
	name string
	dec  Decl
}

// lookup returns the declaration of name, nil when there is none.
func (t declTable) lookup(name string) Decl {
	for _, e := range t {
		if e.name == name {
			return e.dec
		}
	}
	return nil
}

// checker validates one function or routine body.
type checker struct {
	desc   string
	decls  declTable
	owner  string
	isFunc bool
	// exitErr is the first exit_when outside any repeat loop, reported
	// only when the rest of the body checks out.
	exitErr error
}

func (c *checker) body(b *Block) error {
	if err := c.node(b, false); err != nil {
		return err
	}
	return c.exitErr
}

// node checks n and everything under it, in pre-order; inLoop says whether
// n sits inside a repeat loop of the body.
func (c *checker) node(n Node, inLoop bool) error {
	switch x := n.(type) {
	case *Ident:
		dec := c.decls.lookup(x.Name)
		if dec == nil {
			return fmt.Errorf("isps: %s: %s uses undeclared name %q", c.desc, c.owner, x.Name)
		}
		if _, isRoutine := dec.(*RoutineDecl); isRoutine {
			return fmt.Errorf("isps: %s: %s references routine %q as a value", c.desc, c.owner, x.Name)
		}
		return nil
	case *Num:
		return nil
	case *Call:
		dec := c.decls.lookup(x.Name)
		if dec == nil {
			return fmt.Errorf("isps: %s: %s calls undeclared function %q", c.desc, c.owner, x.Name)
		}
		if _, isFn := dec.(*FuncDecl); !isFn {
			return fmt.Errorf("isps: %s: %s calls %q, which is not a function", c.desc, c.owner, x.Name)
		}
		if c.isFunc {
			return fmt.Errorf("isps: %s: function %s calls %s(); nested calls are not allowed", c.desc, c.owner, x.Name)
		}
		return nil
	case *Bin:
		if err := c.node(x.X, inLoop); err != nil {
			return err
		}
		return c.node(x.Y, inLoop)
	case *Un:
		return c.node(x.X, inLoop)
	case *Mem:
		return c.node(x.Addr, inLoop)
	case *Block:
		for _, s := range x.Stmts {
			if err := c.node(s, inLoop); err != nil {
				return err
			}
		}
		return nil
	case *InputStmt:
		for _, nm := range x.Names {
			if c.decls.lookup(nm) == nil {
				return fmt.Errorf("isps: %s: input operand %q is undeclared", c.desc, nm)
			}
		}
		return nil
	case *AssignStmt:
		if id, ok := x.LHS.(*Ident); ok {
			if fd, isFn := c.decls.lookup(id.Name).(*FuncDecl); isFn && fd.Name != c.owner {
				return fmt.Errorf("isps: %s: %s assigns to function %q outside its body", c.desc, c.owner, id.Name)
			}
		}
		if err := c.node(x.LHS, inLoop); err != nil {
			return err
		}
		return c.node(x.RHS, inLoop)
	case *IfStmt:
		if err := c.node(x.Cond, inLoop); err != nil {
			return err
		}
		if err := c.node(x.Then, inLoop); err != nil {
			return err
		}
		return c.node(x.Else, inLoop)
	case *RepeatStmt:
		return c.node(x.Body, true)
	case *ExitWhenStmt:
		if !inLoop && c.exitErr == nil {
			c.exitErr = fmt.Errorf("isps: %s: %s has exit_when (%s) outside any repeat loop",
				c.desc, c.owner, ExprString(x.Cond))
		}
		return c.node(x.Cond, inLoop)
	}
	// Output and assert statements, and any other node: check the children.
	for i := 0; i < n.NumChildren(); i++ {
		if err := c.node(n.Child(i), inLoop); err != nil {
			return err
		}
	}
	return nil
}
