package dataflow

import (
	"fmt"

	"extra/internal/isps"
)

// Graph is a control-flow graph over a routine body. Each simple statement
// and each compound statement's test becomes one node; every repeat loop
// gets a virtual head node carrying its back edge.
type Graph struct {
	Nodes []*GNode
	// Entry is the index of the first node executed; Exit the virtual node
	// representing falling off the end of the routine.
	Entry, Exit int

	funcs map[string]*isps.FuncDecl
}

// GNode is one node of the control-flow graph.
type GNode struct {
	Index int
	// Stmt is the statement (or the if/repeat owning the test); nil for
	// the virtual exit node.
	Stmt isps.Stmt
	// Path is the statement's path relative to the routine body.
	Path isps.Path
	// Succs are the indices of the possible successor nodes.
	Succs []int
	// ExitCont, for a repeat head node, is the node control reaches after
	// the loop terminates; -1 otherwise.
	ExitCont int
	// Cont is the node control reaches once this statement (including any
	// branches or loop it owns) has completed; -1 for the exit node.
	Cont int
	// Eff summarizes what evaluating this node reads/writes. For an if
	// node this covers only the condition; for a repeat head and the exit
	// node its sets are nil (empty).
	Eff Effects
}

// BuildCFG constructs the control-flow graph of a routine body. funcs
// provides call-effect summaries (see FuncMap).
func BuildCFG(body *isps.Block, funcs map[string]*isps.FuncDecl) *Graph {
	g := &Graph{funcs: funcs}
	exit := g.newNode(nil, nil)
	g.Exit = exit.Index
	g.Entry = g.buildBlock(body, isps.Path{}, exit.Index, nil)
	return g
}

func (g *Graph) newNode(stmt isps.Stmt, path isps.Path) *GNode {
	n := &GNode{Index: len(g.Nodes), Stmt: stmt, Path: path, ExitCont: -1, Cont: -1}
	g.Nodes = append(g.Nodes, n)
	return n
}

// buildBlock wires the statements of blk so the last one continues to next;
// it returns the entry node index (next when the block is empty).
// loopExits is the stack of continuation nodes of enclosing repeat loops.
func (g *Graph) buildBlock(blk *isps.Block, path isps.Path, next int, loopExits []int) int {
	cur := next
	for i := len(blk.Stmts) - 1; i >= 0; i-- {
		cur = g.buildStmt(blk.Stmts[i], path.Child(i), cur, loopExits)
	}
	return cur
}

func (g *Graph) buildStmt(s isps.Stmt, path isps.Path, next int, loopExits []int) int {
	switch st := s.(type) {
	case *isps.IfStmt:
		n := g.newNode(s, path)
		n.Cont = next
		n.Eff = NodeEffects(st.Cond, g.funcs)
		thenEntry := g.buildBlock(st.Then, path.Child(1), next, loopExits)
		elseEntry := g.buildBlock(st.Else, path.Child(2), next, loopExits)
		n.Succs = []int{thenEntry, elseEntry}
		return n.Index
	case *isps.RepeatStmt:
		head := g.newNode(s, path)
		head.ExitCont = next
		head.Cont = next
		bodyEntry := g.buildBlock(st.Body, path.Child(0), head.Index, append(loopExits, next))
		head.Succs = []int{bodyEntry}
		return head.Index
	case *isps.ExitWhenStmt:
		n := g.newNode(s, path)
		n.Cont = next
		n.Eff = NodeEffects(st.Cond, g.funcs)
		if len(loopExits) == 0 {
			// Validate rejects this; degrade to a fallthrough.
			n.Succs = []int{next}
			return n.Index
		}
		n.Succs = []int{next, loopExits[len(loopExits)-1]}
		return n.Index
	default:
		n := g.newNode(s, path)
		n.Cont = next
		n.Eff = NodeEffects(s, g.funcs)
		n.Succs = []int{next}
		return n.Index
	}
}

// NodeAt returns the graph node for the statement at the given body-relative
// path.
func (g *Graph) NodeAt(path isps.Path) (*GNode, error) {
	for _, n := range g.Nodes {
		// The exit node's nil path equals the empty path, which addresses
		// the body, not a statement.
		if n.Index != g.Exit && n.Path.Equal(path) {
			return n, nil
		}
	}
	return nil, fmt.Errorf("dataflow: no CFG node at path %s", path)
}

// liveIn reports whether name may be read on some path from node i before
// a node that must define it: a forward search that succeeds at the first
// node that may use name and does not continue past one that must define
// it (a use at a must-def node still counts). For one name this is the
// least fixpoint of liveIn = MayUse ∪ (liveOut − MustDef). seen marks the
// nodes already searched; a node seen again cannot reach a use, or the
// search would have stopped there.
func (g *Graph) liveIn(i int, name string, seen []bool) bool {
	if seen[i] {
		return false
	}
	seen[i] = true
	n := g.Nodes[i]
	if n.Eff.MayUse[name] {
		return true
	}
	if n.Eff.MustDef[name] {
		return false
	}
	for _, s := range n.Succs {
		if g.liveIn(s, name, seen) {
			return true
		}
	}
	return false
}

// LiveAfter reports whether name may be read after the statement at the
// given body-relative path executes (along any path).
func (g *Graph) LiveAfter(path isps.Path, name string) (bool, error) {
	n, err := g.NodeAt(path)
	if err != nil {
		return false, err
	}
	seen := make([]bool, len(g.Nodes))
	for _, s := range n.Succs {
		if g.liveIn(s, name, seen) {
			return true, nil
		}
	}
	return false, nil
}

// LiveAtStmtExit reports whether name may be read once the statement at the
// given body-relative path — including any branches or loop body it owns —
// has completed.
func (g *Graph) LiveAtStmtExit(path isps.Path, name string) (bool, error) {
	n, err := g.NodeAt(path)
	if err != nil {
		return false, err
	}
	return g.liveIn(n.Cont, name, make([]bool, len(g.Nodes))), nil
}

// LiveAtLoopExit reports whether name may be read once the repeat loop at
// the given body-relative path has terminated.
func (g *Graph) LiveAtLoopExit(loopPath isps.Path, name string) (bool, error) {
	n, err := g.NodeAt(loopPath)
	if err != nil {
		return false, err
	}
	if n.ExitCont < 0 {
		return false, fmt.Errorf("dataflow: node at %s is not a repeat loop", loopPath)
	}
	return g.liveIn(n.ExitCont, name, make([]bool, len(g.Nodes))), nil
}
