//go:build race

package jit

const raceEnabled = true
