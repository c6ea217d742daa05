//go:build race

package core

// raceEnabled reports a -race build: allocation counts and timings differ
// under the race detector (sync.Pool drops entries on purpose).
const raceEnabled = true
