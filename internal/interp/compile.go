package interp

import (
	"fmt"

	"extra/internal/isps"
)

// Program is a description compiled for execution. Every register the
// description names is a dense slot with its width mask, every call is
// bound to its function, and every statement and expression is a closure,
// so a run does no name lookups and builds no per-run tables. A Program is
// immutable once compiled and safe to run from several goroutines at once.
type Program struct {
	name string
	regs []string // slot -> register name
	body stmtFn   // nil when the description has no routine
}

// stmtFn runs one compiled statement (or block).
type stmtFn func(*machine) status

// exprFn evaluates one compiled expression; it returns next or fail.
type exprFn func(*machine) (uint64, status)

// Compile translates d for repeated execution. It never fails: a part the
// language cannot run (a missing routine, a call of an undeclared
// function, an unknown node) compiles to code that reports the error at
// the moment a run reaches it, exactly where a walk over d would.
func Compile(d *isps.Description) *Program {
	c := &compiler{
		p:      &Program{name: d.Name},
		slots:  map[string]int{},
		widths: map[string]int{},
		funcs:  map[string]*function{},
	}
	for _, reg := range d.Regs() {
		c.widths[reg.Name] = reg.Width
	}
	for _, f := range d.Funcs() {
		c.widths[f.Name] = f.Width
		c.funcs[f.Name] = &function{}
	}
	// Bodies are compiled after every function exists, so calls (including
	// recursive ones) bind to their function directly. Of two functions
	// declared with one name, the later one is called.
	for _, f := range d.Funcs() {
		c.funcs[f.Name].body = c.block(f.Body)
	}
	if r := d.Routine(); r != nil {
		c.p.body = c.block(r.Body)
	}
	return c.p
}

// compiler holds the name tables that exist only while compiling.
type compiler struct {
	p      *Program
	slots  map[string]int
	widths map[string]int
	funcs  map[string]*function
}

// function is a compiled function body, filled in after every call site
// that binds to it has been compiled.
type function struct {
	body stmtFn
}

// reg returns the slot of a register and the mask its declared width
// implies, allocating the slot on first mention. Undeclared names are
// unbounded registers.
func (c *compiler) reg(name string) (int, uint64) {
	mask := ^uint64(0)
	if w := c.widths[name]; w > 0 && w < 64 {
		mask = 1<<uint(w) - 1
	}
	slot, ok := c.slots[name]
	if !ok {
		slot = len(c.p.regs)
		c.slots[name] = slot
		c.p.regs = append(c.p.regs, name)
	}
	return slot, mask
}

// block compiles a statement sequence. Each statement costs one step,
// charged before it runs.
func (c *compiler) block(b *isps.Block) stmtFn {
	var stmts []stmtFn
	if b != nil {
		stmts = make([]stmtFn, len(b.Stmts))
		for i, s := range b.Stmts {
			stmts[i] = c.stmt(s)
		}
	}
	return func(m *machine) status {
		for _, s := range stmts {
			if st := m.step(); st != next {
				return st
			}
			if st := s(m); st != next {
				return st
			}
		}
		return next
	}
}

func (c *compiler) stmt(s isps.Stmt) stmtFn {
	switch st := s.(type) {
	case *isps.AssignStmt:
		return c.assign(st)
	case *isps.IfStmt:
		cond, then, els := c.expr(st.Cond), c.block(st.Then), c.block(st.Else)
		return func(m *machine) status {
			v, s := cond(m)
			if s != next {
				return s
			}
			if v != 0 {
				return then(m)
			}
			return els(m)
		}
	case *isps.RepeatStmt:
		if st.Body == nil || len(st.Body.Stmts) == 0 {
			// An empty loop spins without executing a statement, so the
			// step budget and the context poll would never stop it.
			return func(m *machine) status { return m.fail(ErrStepLimit) }
		}
		body := c.block(st.Body)
		return func(m *machine) status {
			for {
				switch body(m) {
				case exit:
					return next
				case fail:
					return fail
				}
			}
		}
	case *isps.ExitWhenStmt:
		cond := c.expr(st.Cond)
		return func(m *machine) status {
			v, s := cond(m)
			if s != next {
				return s
			}
			if v != 0 {
				return exit
			}
			return next
		}
	case *isps.AssertStmt:
		cond, text := c.expr(st.Cond), isps.ExprString(st.Cond)
		return func(m *machine) status {
			v, s := cond(m)
			if s != next {
				return s
			}
			if v == 0 {
				return m.fail(&AssertError{Cond: text})
			}
			return next
		}
	case *isps.InputStmt:
		names := st.Names
		slots := make([]int, len(names))
		masks := make([]uint64, len(names))
		for i, name := range names {
			slots[i], masks[i] = c.reg(name)
		}
		return func(m *machine) status {
			for i, name := range names {
				if m.nextIn >= len(m.inputs) {
					return m.fail(fmt.Errorf("interp: %s: input(%s) exhausted the %d supplied operand values",
						m.p.name, name, len(m.inputs)))
				}
				m.set(slots[i], m.inputs[m.nextIn]&masks[i])
				m.nextIn++
			}
			return next
		}
	case *isps.OutputStmt:
		exprs := make([]exprFn, len(st.Exprs))
		for i, e := range st.Exprs {
			exprs[i] = c.expr(e)
		}
		return func(m *machine) status {
			for _, e := range exprs {
				v, s := e(m)
				if s != next {
					return s
				}
				m.outputs = append(m.outputs, v)
			}
			return next
		}
	}
	return func(m *machine) status {
		return m.fail(fmt.Errorf("interp: unknown statement type %T", s))
	}
}

// assign compiles "lhs <- rhs": the right side is evaluated first, then a
// memory target's address.
func (c *compiler) assign(st *isps.AssignStmt) stmtFn {
	rhs := c.expr(st.RHS)
	switch lhs := st.LHS.(type) {
	case *isps.Ident:
		slot, mask := c.reg(lhs.Name)
		return func(m *machine) status {
			v, s := rhs(m)
			if s != next {
				return s
			}
			m.set(slot, v&mask)
			return next
		}
	case *isps.Mem:
		addr := c.expr(lhs.Addr)
		return func(m *machine) status {
			v, s := rhs(m)
			if s != next {
				return s
			}
			a, s := addr(m)
			if s != next {
				return s
			}
			m.store(a, byte(v))
			return next
		}
	}
	target := st.LHS
	return func(m *machine) status {
		if _, s := rhs(m); s != next {
			return s
		}
		return m.fail(fmt.Errorf("interp: bad assignment target %T", target))
	}
}

func truth(v uint64) uint64 {
	if v != 0 {
		return 1
	}
	return 0
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (c *compiler) expr(e isps.Expr) exprFn {
	switch x := e.(type) {
	case *isps.Num:
		v := uint64(x.Val)
		return func(*machine) (uint64, status) { return v, next }
	case *isps.Ident:
		slot, _ := c.reg(x.Name)
		return func(m *machine) (uint64, status) { return m.regs[slot], next }
	case *isps.Mem:
		addr := c.expr(x.Addr)
		return func(m *machine) (uint64, status) {
			a, s := addr(m)
			if s != next {
				return 0, s
			}
			return uint64(m.state.Load(a)), next
		}
	case *isps.Call:
		return c.call(x.Name)
	case *isps.Un:
		return c.unary(x)
	case *isps.Bin:
		return c.binary(x)
	}
	return func(m *machine) (uint64, status) {
		return 0, m.fail(fmt.Errorf("interp: unknown expression type %T", e))
	}
}

func (c *compiler) unary(x *isps.Un) exprFn {
	arg := c.expr(x.X)
	var op func(uint64) uint64
	switch x.Op {
	case isps.OpNot:
		op = func(v uint64) uint64 { return 1 - truth(v) }
	case isps.OpNeg:
		op = func(v uint64) uint64 { return -v }
	default:
		unknown := x.Op
		return func(m *machine) (uint64, status) {
			if _, s := arg(m); s != next {
				return 0, s
			}
			return 0, m.fail(fmt.Errorf("interp: unknown unary operator %s", unknown))
		}
	}
	return func(m *machine) (uint64, status) {
		v, s := arg(m)
		if s != next {
			return 0, s
		}
		return op(v), next
	}
}

func (c *compiler) binary(x *isps.Bin) exprFn {
	lhs, rhs := c.expr(x.X), c.expr(x.Y)
	op := binOp(x.Op)
	switch {
	case x.Op == isps.OpDiv:
		return func(m *machine) (uint64, status) {
			a, b, s := operands(m, lhs, rhs)
			if s != next {
				return 0, s
			}
			if b == 0 {
				return 0, m.fail(fmt.Errorf("interp: division by zero in %s", m.p.name))
			}
			return a / b, next
		}
	case op == nil:
		unknown := x.Op
		return func(m *machine) (uint64, status) {
			if _, _, s := operands(m, lhs, rhs); s != next {
				return 0, s
			}
			return 0, m.fail(fmt.Errorf("interp: unknown binary operator %s", unknown))
		}
	}
	return func(m *machine) (uint64, status) {
		a, b, s := operands(m, lhs, rhs)
		if s != next {
			return 0, s
		}
		return op(a, b), next
	}
}

// operands evaluates a binary operation's operands, left to right.
func operands(m *machine, lhs, rhs exprFn) (a, b uint64, s status) {
	if a, s = lhs(m); s != next {
		return 0, 0, s
	}
	b, s = rhs(m)
	return a, b, s
}

// binOp returns the operation of a binary operator other than division,
// or nil for an unknown one.
func binOp(op isps.Op) func(a, b uint64) uint64 {
	switch op {
	case isps.OpAdd:
		return func(a, b uint64) uint64 { return a + b }
	case isps.OpSub:
		return func(a, b uint64) uint64 { return a - b }
	case isps.OpMul:
		return func(a, b uint64) uint64 { return a * b }
	case isps.OpEq:
		return func(a, b uint64) uint64 { return boolVal(a == b) }
	case isps.OpNe:
		return func(a, b uint64) uint64 { return boolVal(a != b) }
	case isps.OpLt:
		return func(a, b uint64) uint64 { return boolVal(a < b) }
	case isps.OpGt:
		return func(a, b uint64) uint64 { return boolVal(a > b) }
	case isps.OpLe:
		return func(a, b uint64) uint64 { return boolVal(a <= b) }
	case isps.OpGe:
		return func(a, b uint64) uint64 { return boolVal(a >= b) }
	case isps.OpAnd:
		return func(a, b uint64) uint64 { return truth(a) & truth(b) }
	case isps.OpOr:
		return func(a, b uint64) uint64 { return truth(a) | truth(b) }
	case isps.OpXor:
		return func(a, b uint64) uint64 { return truth(a) ^ truth(b) }
	}
	return nil
}

// call compiles a niladic call. A call of an undeclared function fails
// when it runs, not here.
func (c *compiler) call(name string) exprFn {
	fn, ok := c.funcs[name]
	if !ok {
		return func(m *machine) (uint64, status) {
			return 0, m.fail(fmt.Errorf("interp: call of undeclared function %s()", name))
		}
	}
	slot, _ := c.reg(name)
	return func(m *machine) (uint64, status) {
		if m.depth >= maxCallDepth {
			return 0, m.fail(fmt.Errorf("%w at %s()", ErrCallDepth, name))
		}
		m.depth++
		s := fn.body(m)
		m.depth--
		switch s {
		case exit:
			return 0, m.fail(fmt.Errorf("interp: exit_when escaped function %s()", name))
		case fail:
			return 0, fail
		}
		// The function's value is whatever was last assigned to its own
		// name.
		return m.regs[slot], next
	}
}
