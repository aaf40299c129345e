//go:build !race

package platform

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
