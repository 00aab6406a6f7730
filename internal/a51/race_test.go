//go:build race

package a51

// raceEnabled reports a -race build, under which allocation counts are
// not deterministic.
const raceEnabled = true
