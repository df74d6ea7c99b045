//go:build race

package route

// raceEnabled reports whether the race detector is compiled in; long
// single-goroutine oracle tests trim their sweeps under its ~10x slowdown.
const raceEnabled = true
