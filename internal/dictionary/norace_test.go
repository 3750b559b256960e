//go:build !race

package dictionary_test

const raceEnabled = false
