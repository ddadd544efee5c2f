//go:build !race

package ampi

// raceEnabled reports a -race build, where allocation counts differ.
const raceEnabled = false
