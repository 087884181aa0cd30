//go:build race

package svrlab_test

// raceEnabled reports whether the race detector is active. The golden
// artifact test regenerates whole experiments, which the detector slows
// from seconds to minutes.
const raceEnabled = true
