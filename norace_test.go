//go:build !race

package tuplex_test

const raceEnabled = false
