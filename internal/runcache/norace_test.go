//go:build !race

package runcache

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
