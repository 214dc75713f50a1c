//go:build !race

package proofs

const raceEnabled = false
