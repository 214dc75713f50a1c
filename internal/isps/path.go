package isps

import (
	"fmt"
	"strconv"
	"strings"
)

// Path addresses a node inside a description by the sequence of child
// indices from the root, exactly like the cursor of EXTRA's structure
// editor. The empty path addresses the description itself.
type Path []int

// String renders a path as "/2/0/1".
func (p Path) String() string {
	if len(p) == 0 {
		return "/"
	}
	var buf [64]byte
	out := buf[:0]
	for _, i := range p {
		out = append(out, '/')
		out = strconv.AppendInt(out, int64(i), 10)
	}
	return string(out)
}

// ParsePath parses the String form back into a Path. "/" is the empty path.
func ParsePath(s string) (Path, error) {
	if s == "" || s == "/" {
		return Path{}, nil
	}
	if !strings.HasPrefix(s, "/") {
		return nil, fmt.Errorf("isps: malformed path %q", s)
	}
	parts := strings.Split(s[1:], "/")
	p := make(Path, len(parts))
	for i, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("isps: malformed path component %q in %q", part, s)
		}
		p[i] = n
	}
	return p, nil
}

// Child extends the path by one step. It returns a fresh slice so callers
// can keep the original.
func (p Path) Child(i int) Path {
	c := make(Path, len(p)+1)
	copy(c, p)
	c[len(p)] = i
	return c
}

// Parent returns the path with its last step removed and that step. It
// panics on the empty path.
func (p Path) Parent() (Path, int) {
	if len(p) == 0 {
		panic("isps: empty path has no parent")
	}
	return append(Path(nil), p[:len(p)-1]...), p[len(p)-1]
}

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Resolve walks the path from root and returns the addressed node. A path
// that leaves the tree fails with a *ResolveError.
func Resolve(root Node, p Path) (Node, error) {
	n := root
	for depth, i := range p {
		if i < 0 || i >= n.NumChildren() {
			return nil, &ResolveError{Path: append(Path(nil), p...), Depth: depth, Node: n, Children: n.NumChildren()}
		}
		n = n.Child(i)
	}
	return n, nil
}

// ResolveError reports a path step with no child to take. Its message is
// formatted when read: tactics and the search resolve paths that an
// earlier step of theirs has made stale, and drop the error. Path is a copy
// of the resolved path, so the message does not change when the caller
// reuses its slice.
type ResolveError struct {
	Path Path
	// Depth is the index into Path of the step that failed.
	Depth int
	// Node is the node that step indexes into, and Children its child
	// count.
	Node     Node
	Children int
}

func (e *ResolveError) Error() string {
	return fmt.Sprintf("isps: path %s: index %d out of range at depth %d (%T has %d children)",
		e.Path, e.Path[e.Depth], e.Depth, e.Node, e.Children)
}

// Walk calls fn for every node in pre-order, passing the node and its path
// from root. If fn returns false the node's children are skipped.
//
// The path slice is reused across calls to fn: callers that retain a path
// beyond the callback must copy it (append(Path(nil), p...)). Reuse keeps
// a full-tree walk at one allocation instead of one per node, which is the
// difference between O(n) and O(n·depth) allocations on the search's
// candidate-enumeration hot path. A caller that reads no path uses Visit,
// which allocates nothing.
func Walk(root Node, fn func(n Node, p Path) bool) {
	scratch := make(Path, 0, 32)
	var rec func(n Node)
	rec = func(n Node) {
		if !fn(n, scratch) {
			return
		}
		for i := 0; i < n.NumChildren(); i++ {
			scratch = append(scratch, i)
			rec(n.Child(i))
			scratch = scratch[:len(scratch)-1]
		}
	}
	rec(root)
}

// Visit calls fn for every node in pre-order, as Walk does, but passes no
// path: it is Walk for callers that do not read one, and it allocates
// nothing of its own. If fn returns false the node's children are skipped.
func Visit(root Node, fn func(n Node) bool) {
	if !fn(root) {
		return
	}
	for i := 0; i < root.NumChildren(); i++ {
		Visit(root.Child(i), fn)
	}
}

// Find returns the path of the first node (in pre-order) for which pred is
// true, or ok=false if none matches.
func Find(root Node, pred func(Node) bool) (Path, bool) {
	var found Path
	ok := false
	Walk(root, func(n Node, p Path) bool {
		if ok {
			return false
		}
		if pred(n) {
			found = append(Path(nil), p...)
			ok = true
			return false
		}
		return true
	})
	return found, ok
}

// FindAll returns the paths of all nodes (in pre-order) matching pred.
func FindAll(root Node, pred func(Node) bool) []Path {
	var out []Path
	Walk(root, func(n Node, p Path) bool {
		if pred(n) {
			out = append(out, append(Path(nil), p...))
		}
		return true
	})
	return out
}

// UsedNames returns the set of identifier, call and input-operand names that
// occur anywhere under root (excluding declaration names).
func UsedNames(root Node) map[string]bool {
	used := map[string]bool{}
	Visit(root, func(n Node) bool {
		switch x := n.(type) {
		case *Ident:
			used[x.Name] = true
		case *Call:
			used[x.Name] = true
		case *InputStmt:
			for _, nm := range x.Names {
				used[nm] = true
			}
		}
		return true
	})
	return used
}

// NameFree reports whether FreshName(root, name) would return name itself:
// name is not a keyword, not declared (when root is a description) and not
// used under root as an identifier, call or input operand. It builds no
// table and stops at the first use.
func NameFree(root Node, name string) bool {
	if IsKeyword(name) {
		return false
	}
	if d, ok := root.(*Description); ok {
		for _, s := range d.Sections {
			for _, dec := range s.Decls {
				if dec.DeclName() == name {
					return false
				}
			}
		}
	}
	return !nameUsed(root, name)
}

// nameUsed reports whether name occurs under n where UsedNames looks.
func nameUsed(n Node, name string) bool {
	switch x := n.(type) {
	case *Ident:
		return x.Name == name
	case *Call:
		return x.Name == name
	case *InputStmt:
		for _, nm := range x.Names {
			if nm == name {
				return true
			}
		}
		return false
	}
	for i := 0; i < n.NumChildren(); i++ {
		if nameUsed(n.Child(i), name) {
			return true
		}
	}
	return false
}

// FreshName returns base if unused in root, otherwise base1, base2, ....
func FreshName(root Node, base string) string {
	used := UsedNames(root)
	declared := map[string]bool{}
	if d, ok := root.(*Description); ok {
		for _, s := range d.Sections {
			for _, dec := range s.Decls {
				declared[dec.DeclName()] = true
			}
		}
	}
	if !used[base] && !declared[base] && !IsKeyword(base) {
		return base
	}
	for i := 1; ; i++ {
		name := fmt.Sprintf("%s%d", base, i)
		if !used[name] && !declared[name] && !IsKeyword(name) {
			return name
		}
	}
}
