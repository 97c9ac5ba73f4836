//go:build race

package main

// raceEnabled reports a race-detector build, whose CPU profile is
// dominated by the detector's own frames.
const raceEnabled = true
