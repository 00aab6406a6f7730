//go:build race

package sniffer

// raceEnabled reports a -race build, under which allocation counts are
// not deterministic.
const raceEnabled = true
