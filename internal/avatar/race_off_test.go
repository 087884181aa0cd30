//go:build !race

package avatar

const raceEnabled = false
