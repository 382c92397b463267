//go:build race

package kvstore

// raceEnabled reports that the race detector is instrumenting this
// build; allocation-count assertions are skipped since the detector
// adds its own allocations.
const raceEnabled = true
