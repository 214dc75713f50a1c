package core

// SameWrites exposes sameWrites to the external tests.
var SameWrites = sameWrites

// MoveGates exposes the probe gate table to the external tests.
var MoveGates = moveGates
