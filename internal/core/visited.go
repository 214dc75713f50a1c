package core

import (
	"fmt"

	"extra/internal/isps"
)

// visitedSet is the auto-search's set of admitted states, keyed by the
// 128-bit structural digest of the (operator, instruction) description pair
// (isps.HashPair): no pretty-printing, no retained strings.
//
// In collision-check mode (autoHashCheck) every digest also maps back to the
// full formatted state key it stands for, and a digest met with two
// different keys is a hard error instead of a silently pruned branch. The
// mode retains strings by design; production searches leave it off.
type visitedSet struct {
	seen map[isps.Digest]struct{}
	keys map[isps.Digest]string // collision-check mode only
}

func newVisitedSet(check bool) *visitedSet {
	vs := &visitedSet{seen: map[isps.Digest]struct{}{}}
	if check {
		vs.keys = map[isps.Digest]string{}
	}
	return vs
}

// add admits the state (op, ins) with digest d and reports whether it was
// new. The error is a 128-bit collision found by the check mode.
func (vs *visitedSet) add(d isps.Digest, op, ins *isps.Description) (bool, error) {
	if vs.keys != nil {
		key := isps.Format(op) + "\x00" + isps.Format(ins)
		prev, ok := vs.keys[d]
		if ok && prev != key {
			return false, fmt.Errorf("core: 128-bit state hash collision on digest %016x%016x", d.Hi, d.Lo)
		}
		vs.keys[d] = key
	}
	if _, ok := vs.seen[d]; ok {
		return false, nil
	}
	vs.seen[d] = struct{}{}
	return true, nil
}

// size reports the number of admitted states.
func (vs *visitedSet) size() int { return len(vs.seen) }
