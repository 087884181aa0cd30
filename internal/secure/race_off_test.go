//go:build !race

package secure

const raceEnabled = false
