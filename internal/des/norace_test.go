//go:build !race

package des

// raceEnabled reports a build under the race detector, whose runtime
// allocates objects of its own in a run.
const raceEnabled = false
