//go:build !race

package machine_test

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
