package isps

import "math/bits"

// Digest is a 128-bit structural hash of a node tree. Two trees with the
// same Format text always hash to the same digest (the encoding covers
// exactly the fields printing covers: names, widths, comments, operators,
// literals and their character flag); the auto-search's visited set keys
// on digests instead of pretty-printed source text, so deduplicating a
// candidate state costs one tree walk and no string construction or
// retention.
type Digest struct {
	Hi, Lo uint64
}

// FNV-1a 128-bit parameters (offset basis and prime).
const (
	fnvBasisHi = 0x6c62272e07bb0142
	fnvBasisLo = 0x62b821756295c58d
	fnvPrimeHi = 0x0000000001000000
	fnvPrimeLo = 0x000000000000013B
)

// hasher streams bytes into a 128-bit FNV-1a accumulator. It never builds
// the encoded byte sequence: every scalar of every node is folded into the
// running state directly.
type hasher struct {
	hi, lo uint64
}

func newHasher() hasher { return hasher{hi: fnvBasisHi, lo: fnvBasisLo} }

func (h *hasher) byte(b byte) {
	// FNV-1a: xor the byte in, then multiply the 128-bit state by the
	// 128-bit prime (mod 2^128).
	lo := h.lo ^ uint64(b)
	hi := h.hi
	carryHi, lo1 := bits.Mul64(lo, fnvPrimeLo)
	h.hi = hi*fnvPrimeLo + lo*fnvPrimeHi + carryHi
	h.lo = lo1
}

func (h *hasher) uint64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v))
		v >>= 8
	}
}

func (h *hasher) int(v int) { h.uint64(uint64(int64(v))) }

func (h *hasher) string(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *hasher) bool(b bool) {
	if b {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

func (h *hasher) digest() Digest { return Digest{Hi: h.hi, Lo: h.lo} }

// Node type tags of the canonical encoding. Every tag is distinct so that
// trees differing only in node kind ("if" vs "repeat" around the same
// block) encode differently.
const (
	tagDescription byte = iota + 1
	tagSection
	tagRegDecl
	tagFuncDecl
	tagRoutineDecl
	tagBlock
	tagAssign
	tagIf
	tagRepeat
	tagExitWhen
	tagInput
	tagOutput
	tagAssert
	tagIdent
	tagNum
	tagBin
	tagUn
	tagMem
	tagCall
)

// Hash computes the 128-bit structural digest of n. The encoding mirrors
// the AST directly — type tags, scalar fields, child digests — rather than
// the printed source, so hashing is allocation-free and much cheaper than
// Format. Structural equality implies digest equality; the converse holds
// up to 128-bit collisions (the auto-search's tests check it on every state
// their searches meet, against the state's formatted source).
//
// Digests compose Merkle-style: a node's digest folds its own scalars with
// the digests of its children, and interned nodes carry their digest
// memoized. Rehashing a tree built by ReplaceAt therefore costs only the
// rebuilt spine — every frozen subtree answers from its memo.
func Hash(n Node) Digest { return hashNode(n) }

func hashNode(n Node) Digest {
	if m := metaOf(n); m != nil && m.frozen() {
		return m.digest()
	}
	h := newHasher()
	h.node(n)
	return h.digest()
}

// HashPair digests two trees into one combined state key, for visited sets
// keyed on (operator, instruction) description pairs.
func HashPair(a, b Node) Digest {
	h := newHasher()
	h.child(a)
	h.byte(0xFF) // separator tag outside the node tag range
	h.child(b)
	return h.digest()
}

// child folds the digest of a child subtree into the running state, hitting
// the memo when the child is interned.
func (h *hasher) child(n Node) {
	d := hashNode(n)
	h.uint64(d.Hi)
	h.uint64(d.Lo)
}

func (h *hasher) node(n Node) {
	switch x := n.(type) {
	case *Description:
		h.byte(tagDescription)
		h.string(x.Name)
		h.int(len(x.Sections))
		for _, s := range x.Sections {
			h.child(s)
		}
	case *Section:
		h.byte(tagSection)
		h.string(x.Name)
		h.int(len(x.Decls))
		for _, d := range x.Decls {
			h.child(d)
		}
	case *RegDecl:
		h.byte(tagRegDecl)
		h.string(x.Name)
		h.int(x.Width)
		h.string(x.Comment)
	case *FuncDecl:
		h.byte(tagFuncDecl)
		h.string(x.Name)
		h.int(x.Width)
		h.string(x.Comment)
		h.child(x.Body)
	case *RoutineDecl:
		h.byte(tagRoutineDecl)
		h.string(x.Name)
		h.child(x.Body)
	case *Block:
		h.byte(tagBlock)
		h.int(len(x.Stmts))
		for _, s := range x.Stmts {
			h.child(s)
		}
	case *AssignStmt:
		h.byte(tagAssign)
		h.child(x.LHS)
		h.child(x.RHS)
	case *IfStmt:
		h.byte(tagIf)
		h.child(x.Cond)
		h.child(x.Then)
		h.child(x.Else)
	case *RepeatStmt:
		h.byte(tagRepeat)
		h.child(x.Body)
	case *ExitWhenStmt:
		h.byte(tagExitWhen)
		h.child(x.Cond)
	case *InputStmt:
		h.byte(tagInput)
		h.int(len(x.Names))
		for _, name := range x.Names {
			h.string(name)
		}
	case *OutputStmt:
		h.byte(tagOutput)
		h.int(len(x.Exprs))
		for _, e := range x.Exprs {
			h.child(e)
		}
	case *AssertStmt:
		h.byte(tagAssert)
		h.child(x.Cond)
	case *Ident:
		h.byte(tagIdent)
		h.string(x.Name)
	case *Num:
		h.byte(tagNum)
		h.uint64(uint64(x.Val))
		h.bool(x.IsChar)
	case *Bin:
		h.byte(tagBin)
		h.byte(byte(x.Op))
		h.child(x.X)
		h.child(x.Y)
	case *Un:
		h.byte(tagUn)
		h.byte(byte(x.Op))
		h.child(x.X)
	case *Mem:
		h.byte(tagMem)
		h.child(x.Addr)
	case *Call:
		h.byte(tagCall)
		h.string(x.Name)
	}
}
