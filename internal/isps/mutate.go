package isps

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// meta is the hash-consing state embedded in every node: the memoized
// 128-bit structural digest and a frozen flag. A node starts unfrozen with
// no digest; Intern computes the digest, stores it, and freezes the node.
// From then on the node is shared and never written: rewrites go through
// ReplaceAt and Rewrite, which copy the spine above the edit.
//
// state is accessed atomically (plain uint32 rather than atomic.Uint32 so
// that value copies of node structs do not trip go vet's copylocks check;
// frozen nodes are never copied by value while being frozen — freeze
// happens exactly once, before the node is published via the interner map).
// The digest fields are published release/acquire style: freeze writes them
// and then atomically stores state; readers atomically load state before
// reading them.
type meta struct {
	digHi, digLo uint64
	state        uint32
}

func (m *meta) frozen() bool { return atomic.LoadUint32(&m.state) != 0 }

// freeze publishes the digest and marks the node immutable. It must be
// called at most once, before the node escapes to other goroutines.
func (m *meta) freeze(d Digest) {
	m.digHi, m.digLo = d.Hi, d.Lo
	atomic.StoreUint32(&m.state, 1)
}

// digest returns the memoized digest; valid only after frozen() is true.
func (m *meta) digest() Digest { return Digest{Hi: m.digHi, Lo: m.digLo} }

// nodeMeta is promoted into every node type that embeds meta; it is the
// method that closes the Node interface.
func (m *meta) nodeMeta() *meta { return m }

// metaOf returns the hash-consing state of n, or nil for a nil node.
func metaOf(n Node) *meta {
	if n == nil {
		return nil
	}
	return n.nodeMeta()
}

// Interned reports whether n is a canonical, frozen node owned by the
// interner. Interned nodes are immutable: rewrites go through ReplaceAt or
// Rewrite, which share them.
func Interned(n Node) bool {
	m := metaOf(n)
	return m != nil && m.frozen()
}

// ErrChildKind reports a replacement node whose kind is not acceptable at
// the target position (e.g. a statement where an expression goes).
// ReplaceAt and Rewrite return it wrapped in a *NodeError; callers classify
// it (core's apply guard turns it into a path fault) instead of relying on
// panic recovery.
var ErrChildKind = errors.New("node kind not acceptable at this position")

// NodeError describes a rejected replacement of a child.
type NodeError struct {
	Node  string // concrete node type, e.g. "*isps.IfStmt"
	Index int    // index of the child being replaced
	Kind  string // concrete type of the rejected replacement
	Err   error  // ErrChildKind
}

func (e *NodeError) Error() string {
	return fmt.Sprintf("isps: set child %d of %s to %s: %v", e.Index, e.Node, e.Kind, e.Err)
}

func (e *NodeError) Unwrap() error { return e.Err }

func errKind(n Node, i int, repl Node) error {
	return &NodeError{Node: fmt.Sprintf("%T", n), Index: i, Kind: fmt.Sprintf("%T", repl), Err: ErrChildKind}
}
