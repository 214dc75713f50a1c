package core

// SameWrites exposes sameWrites to the external tests.
var SameWrites = sameWrites

// MapGen exposes mapGen to the external tests.
var MapGen = mapGen
