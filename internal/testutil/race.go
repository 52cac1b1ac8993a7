//go:build race

package testutil

// RaceEnabled reports whether the binary was built with -race. Tests
// that pin allocation counts read it: the race detector's sync.Pool
// drops a share of Put items on purpose, so pooled objects are rebuilt
// and counts exceed what a normal build allocates.
const RaceEnabled = true
