//go:build race

package trace

// raceEnabled reports whether the race detector is active. Its
// instrumentation changes what escapes and allocates, so the allocation
// bounds only hold without it.
const raceEnabled = true
