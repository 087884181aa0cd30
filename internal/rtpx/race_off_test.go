//go:build !race

package rtpx

const raceEnabled = false
