//go:build race

package secure

// raceEnabled reports whether the race detector is active. Its
// instrumentation changes what escapes and allocates, so the steady-state
// allocation bounds only hold without it.
const raceEnabled = true
