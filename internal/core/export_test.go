package core

// SameWrites exposes sameWrites to the external tests.
var SameWrites = sameWrites
