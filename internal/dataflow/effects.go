// Package dataflow computes the def/use effects, the control-flow graph and
// the per-name liveness queries that the transformation library consults to
// decide whether a transformation can be applied at a point (paper section 5: "the transformations
// themselves utilize various types of data flow information that is used to
// determine whether a transformation is valid at a particular point").
package dataflow

import (
	"extra/internal/isps"
)

// MemName is the pseudo-resource standing for main memory Mb in effect
// sets: any Mb read uses it, any Mb write may-defines it (never
// must-defines it, because a byte store does not kill the rest of memory).
const MemName = "Mb"

// IOName is the pseudo-resource standing for the input/output streams:
// input and output statements both may-define it, so no transformation
// reorders them relative to one another.
const IOName = "·io"

// Effects summarizes what a node may read and write.
//
// MustDef is the set of names written on every execution path through the
// node; it is the only set safe to use as a liveness kill set. MayUse and
// MayDef over-approximate.
type Effects struct {
	MayUse  map[string]bool
	MayDef  map[string]bool
	MustDef map[string]bool
}

// Union merges another effect summary into this one and returns it.
func (e Effects) Union(o Effects) Effects {
	for k := range o.MayUse {
		e.MayUse[k] = true
	}
	for k := range o.MayDef {
		e.MayDef[k] = true
	}
	for k := range o.MustDef {
		e.MustDef[k] = true
	}
	return e
}

// FuncMap builds the function-name table used for call-effect summaries.
func FuncMap(d *isps.Description) map[string]*isps.FuncDecl {
	m := map[string]*isps.FuncDecl{}
	for _, f := range d.Funcs() {
		m[f.Name] = f
	}
	return m
}

// NodeEffects computes the effect summary of any statement, block or
// expression. Function calls contribute the callee's effects plus a use of
// the callee's own name (its return slot).
func NodeEffects(n isps.Node, funcs map[string]*isps.FuncDecl) Effects {
	e := Effects{MayUse: map[string]bool{}, MayDef: map[string]bool{}, MustDef: map[string]bool{}}
	e.add(n, funcs)
	return e
}

// add accumulates n's effects into e's sets. A nil e.MustDef discards
// must-defs: nothing under a repeat is a definite def.
func (e Effects) add(n isps.Node, funcs map[string]*isps.FuncDecl) {
	switch x := n.(type) {
	case *isps.Ident:
		e.MayUse[x.Name] = true
	case *isps.Mem:
		e.add(x.Addr, funcs)
		e.MayUse[MemName] = true
	case *isps.Call:
		if f, ok := funcs[x.Name]; ok {
			e.add(f.Body, funcs)
		}
		// Reading the call's value reads the function's return slot.
		e.MayUse[x.Name] = true
	case *isps.Un:
		e.add(x.X, funcs)
	case *isps.Bin:
		e.add(x.X, funcs)
		e.add(x.Y, funcs)
	case *isps.AssignStmt:
		e.add(x.RHS, funcs)
		switch lhs := x.LHS.(type) {
		case *isps.Ident:
			e.def(lhs.Name)
		case *isps.Mem:
			e.add(lhs.Addr, funcs)
			e.MayDef[MemName] = true
		}
	case *isps.IfStmt:
		// The condition is always evaluated, so its definite call side
		// effects stay definite; a branch's must-def is definite only when
		// the other branch has it too.
		e.add(x.Cond, funcs)
		then, els := e, e
		if e.MustDef != nil {
			then.MustDef, els.MustDef = map[string]bool{}, map[string]bool{}
		}
		then.add(x.Then, funcs)
		els.add(x.Else, funcs)
		for k := range then.MustDef {
			if els.MustDef[k] {
				e.MustDef[k] = true
			}
		}
	case *isps.RepeatStmt:
		// A repeat body runs at least once, but an early exit_when can cut
		// it short, so nothing in it is a definite def.
		body := e
		body.MustDef = nil
		body.add(x.Body, funcs)
	case *isps.ExitWhenStmt:
		e.add(x.Cond, funcs)
	case *isps.AssertStmt:
		e.add(x.Cond, funcs)
	case *isps.InputStmt:
		for _, name := range x.Names {
			e.def(name)
		}
		e.MayDef[IOName] = true
	case *isps.OutputStmt:
		for _, ex := range x.Exprs {
			e.add(ex, funcs)
		}
		e.MayDef[IOName] = true
	case *isps.Block:
		for _, s := range x.Stmts {
			e.add(s, funcs)
		}
	}
}

// def records a write of name on every path through the node.
func (e Effects) def(name string) {
	e.MayDef[name] = true
	if e.MustDef != nil {
		e.MustDef[name] = true
	}
}

// Independent reports whether two statements may be reordered: neither may
// write anything the other reads or writes, and neither transfers control
// (an exit_when, or a conditional holding one, can leave the loop). Memory
// and the i/o streams are modeled as pseudo-resources, so two Mb writes, or
// an Mb write and an Mb read, are never independent.
func Independent(a, b isps.Stmt, funcs map[string]*isps.FuncDecl) bool {
	if exits(a) || exits(b) {
		return false
	}
	ea := NodeEffects(a, funcs)
	eb := NodeEffects(b, funcs)
	for k := range ea.MayDef {
		if eb.MayUse[k] || eb.MayDef[k] {
			return false
		}
	}
	for k := range eb.MayDef {
		if ea.MayUse[k] || ea.MayDef[k] {
			return false
		}
	}
	return true
}

// exits reports whether an exit_when in s can leave the loop enclosing s:
// s is one, or a conditional holds one outside any repeat nested in s.
func exits(s isps.Stmt) bool {
	switch x := s.(type) {
	case *isps.ExitWhenStmt:
		return true
	case *isps.IfStmt:
		return blockExits(x.Then) || blockExits(x.Else)
	}
	return false
}

func blockExits(b *isps.Block) bool {
	for _, s := range b.Stmts {
		if exits(s) {
			return true
		}
	}
	return false
}

// UsesName reports whether name occurs as an identifier or call under n,
// or as an input operand.
func UsesName(n isps.Node, name string) bool {
	found := false
	isps.Visit(n, func(m isps.Node) bool {
		switch x := m.(type) {
		case *isps.Ident:
			if x.Name == name {
				found = true
			}
		case *isps.Call:
			if x.Name == name {
				found = true
			}
		case *isps.InputStmt:
			for _, nm := range x.Names {
				if nm == name {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// MayDefine reports whether executing n can write name.
func MayDefine(n isps.Node, name string, funcs map[string]*isps.FuncDecl) bool {
	return NodeEffects(n, funcs).MayDef[name]
}

// HasCalls reports whether any function call occurs under n. It recurses
// directly and stops at the first call, where a Visit would go on calling
// back for the remaining siblings at every level above it.
func HasCalls(n isps.Node) bool {
	if _, isCall := n.(*isps.Call); isCall {
		return true
	}
	for i := 0; i < n.NumChildren(); i++ {
		if HasCalls(n.Child(i)) {
			return true
		}
	}
	return false
}
