//go:build race

package engine

// raceEnabled marks a -race build, where sync.Pool deliberately drops
// a share of its items, so pooled paths allocate by design.
const raceEnabled = true
