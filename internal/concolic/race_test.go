//go:build race

package concolic

const raceEnabled = true
