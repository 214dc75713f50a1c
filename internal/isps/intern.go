package isps

import "sync"

// The interner hash-conses nodes: structurally equal subtrees intern to the
// same canonical pointer, keyed on the 128-bit structural digest. Canonical
// nodes are frozen (immutable) with their digest memoized, so
//
//   - Equal on two interned trees compares two memoized digests,
//   - Hash answers from the memo instead of re-walking,
//   - the visited set and cache key cost a field read, and
//   - ReplaceAt shares every subtree off the edited spine.
//
// The table is sharded to keep lock contention off concurrent sessions
// (batch and discover workers, concurrent serve requests), and each shard
// is bounded: when it fills, the shard map is dropped and restarted.
// Dropping entries is safe — nodes already handed out stay frozen and
// valid; later interns of equal trees merely mint a fresh canonical
// pointer, losing sharing but never correctness (Equal compares digests,
// not pointers).

const (
	internShards   = 64
	internShardCap = 1 << 15 // nodes per shard before reset
)

type internShard struct {
	mu sync.Mutex
	m  map[Digest]Node
}

var interner [internShards]internShard

func internShardFor(d Digest) *internShard {
	return &interner[d.Lo&(internShards-1)]
}

// Intern returns the canonical frozen node structurally equal to n. It
// takes ownership of n: each unfrozen node under it has its children
// replaced by their canonical nodes in place and is then published itself
// when no equal node is canonical yet, so the nodes of n may end up frozen
// as parts of the result. n keeps its structure, and a frozen n is its own
// result. The caller must own every unfrozen node under n (a fresh parse,
// or a rebuild over frozen trees such as a transformation's outcome): no
// other goroutine may reach one, and the caller must not mutate one
// afterwards. A slice an unfrozen node shares with a frozen one is never
// written to, because the frozen node's elements are canonical already.
func Intern(n Node) Node {
	if m := metaOf(n); m == nil || m.frozen() {
		return n
	}
	for i := 0; i < n.NumChildren(); i++ {
		c := n.Child(i)
		if ci := Intern(c); ci != c {
			// An equal digest covers the node tag, so ci has c's kind and
			// setChild cannot refuse it.
			_ = setChild(n, i, ci)
		}
	}
	return canonicalize(n)
}

// InternDesc interns a description with the concrete type preserved.
func InternDesc(d *Description) *Description { return Intern(d).(*Description) }

// canonicalize looks up the node c (whose children are all canonical
// already, so hashing it costs one shallow fold) and either returns the
// existing canonical node or freezes and publishes c itself.
func canonicalize(c Node) Node {
	dg := hashNode(c)
	sh := internShardFor(dg)
	sh.mu.Lock()
	if prev, ok := sh.m[dg]; ok {
		sh.mu.Unlock()
		return prev
	}
	// Freeze before publishing: once c is in the map another goroutine may
	// read it, and frozen() must already answer true by then.
	metaOf(c).freeze(dg)
	if len(sh.m) >= internShardCap {
		sh.m = nil
	}
	if sh.m == nil {
		sh.m = make(map[Digest]Node, 256)
	}
	sh.m[dg] = c
	sh.mu.Unlock()
	return c
}
