//go:build race

package proofs

// raceEnabled reports a build with the race detector, whose slowdown the
// longest differential tests answer with fewer inputs.
const raceEnabled = true
