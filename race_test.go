//go:build race

package tuplex_test

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random: allocation-volume guards do not hold there.
const raceEnabled = true
